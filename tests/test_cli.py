import os
import re
import resource
import stat
import subprocess
import sys

import numpy as np
import pytest

import helpers
from cbnet import BackboneSpec, CBNetConfig, build_cbnet, save_weights, state_dict
from cbnet import cli
from cbnet.cli import NET_SEED, HEAD_SEED, main, sub_seed
from cbnet.task import build_head

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args, cwd=None, preexec_fn=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "cbnet", *args],
                          capture_output=True, text=True, cwd=cwd, env=env,
                          preexec_fn=preexec_fn)


def test_summarize_reports_connection_count():
    result = run_cli("summarize", "--k", "2", "--style", "ahlc")
    assert result.returncode == 0
    assert "composite connections: 4" in result.stdout
    assert "total params:" in result.stdout


def test_summarize_dhlc_triple():
    result = run_cli("summarize", "--k", "3", "--style", "dhlc")
    assert result.returncode == 0
    assert "composite connections: 20" in result.stdout


def test_unknown_subcommand_exits_2():
    result = run_cli("frobnicate")
    assert result.returncode == 2
    assert "usage" in result.stderr.lower()


def test_unknown_flag_exits_2():
    result = run_cli("summarize", "--bogus")
    assert result.returncode == 2


@pytest.mark.parametrize("args", [
    ("summarize", "--k", "0"),
    ("train", "--n", "0"),
    ("eval", "--n", "0"),
    ("train", "--steps", "-1"),
    ("train", "--lr", "nan"),
    ("train", "--lr", "inf"),
    ("train", "--lr", "-0.5"),
    ("gradcheck", "--toy", "--tolerance", "nan"),
    ("gradcheck", "--toy", "--tolerance", "-0.001"),
    *((command, "--seed", "-1")
      for command in ("summarize", "train", "eval", "gradcheck", "flops", "viz")),
], ids=" ".join)
def test_flag_out_of_range_exits_2_with_usage(tmp_path, args):
    out = tmp_path / "run"
    extra = ("--out", str(out)) if args[0] in ("train", "viz") else ()
    result = run_cli(*args, *extra)
    assert result.returncode == 2
    assert "usage" in result.stderr.lower()
    assert f"argument {args[-2]}: must be finite and >=" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("message, line", [
    ("", "error: out of memory"),
    ("Unable to allocate 8.00 GiB for an array with shape (1073741824,) and data type float64",
     "error: out of memory: Unable to allocate 8.00 GiB for an array with shape "
     "(1073741824,) and data type float64"),
], ids=["bare", "numpy"])
def test_running_out_of_memory_exits_1_with_one_error_line(monkeypatch, capsys, message, line):
    def exhausted(*args, **kwargs):
        raise MemoryError(*([message] if message else []))

    monkeypatch.setattr(cli, "build_cbnet", exhausted)
    assert main(["flops", "--k", "2"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line + "\n")


def test_runtime_failure_exits_1(tmp_path):
    result = run_cli("eval", "--k", "1", "--n", "2",
                     "--weights-in", str(tmp_path / "missing.cbnw"))
    assert result.returncode == 1
    assert "error:" in result.stderr


def test_eval_rejects_a_negative_running_var_with_exit_1(tmp_path):
    named = state_dict(build_cbnet(CBNetConfig(num_backbones=1), sub_seed(0, NET_SEED)))
    named["b1.stem.bn.running_var"][0] = -1.0
    path = tmp_path / "negative.cbnw"
    save_weights(named, path)
    result = run_cli("eval", "--k", "1", "--n", "2", "--weights-in", str(path))
    assert result.returncode == 1
    assert "'b1.stem.bn.running_var': batchnorm running_var has negative entries" \
        in result.stderr
    assert result.stdout == ""


def test_train_zero_steps_writes_initialized_weights(tmp_path):
    out = tmp_path / "run"
    result = run_cli("train", "--k", "1", "--steps", "0", "--n", "2", "--seed", "5",
                     "--out", str(out))
    assert result.returncode == 0, result.stderr
    spec = BackboneSpec()
    net = build_cbnet(CBNetConfig(num_backbones=1, spec=spec), sub_seed(5, NET_SEED))
    head = build_head(spec, sub_seed(5, HEAD_SEED))
    named = state_dict(net)
    for name, value in head.state():
        named[f"head.{name}"] = value
    want = tmp_path / "want.cbnw"
    save_weights(named, want)
    assert (out / "weights.cbnw").read_bytes() == want.read_bytes()
    assert (out / "loss.csv").read_text() == "step,loss\n"


def test_output_probe_keeps_a_users_write_test_file(tmp_path):
    out = tmp_path / "o"
    out.mkdir()
    (out / ".write-test").write_bytes(b"mine\n")
    result = run_cli("train", "--k", "1", "--steps", "0", "--n", "2", "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert (out / ".write-test").read_bytes() == b"mine\n"
    assert sorted(p.name for p in out.iterdir()) == [".write-test", "loss.csv", "weights.cbnw"]


def test_train_writes_csv_and_reruns_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        result = run_cli("train", "--k", "1", "--steps", "3", "--n", "4",
                         "--seed", "3", "--out", str(out))
        assert result.returncode == 0, result.stderr
    csv = (out_a / "loss.csv").read_text()
    lines = csv.strip().split("\n")
    assert lines[0] == "step,loss"
    assert len(lines) == 4
    assert all(re.match(r"^\d+,[\d.e+-]+$", line) for line in lines[1:])
    assert csv == (out_b / "loss.csv").read_text()
    assert (out_a / "weights.cbnw").read_bytes() == (out_b / "weights.cbnw").read_bytes()


def test_eval_prints_metrics_line(tmp_path):
    out = tmp_path / "run"
    result = run_cli("train", "--k", "1", "--steps", "2", "--n", "4", "--seed", "7",
                     "--out", str(out))
    assert result.returncode == 0, result.stderr
    result = run_cli("eval", "--k", "1", "--n", "4", "--seed", "7",
                     "--weights-in", str(out / "weights.cbnw"))
    assert result.returncode == 0, result.stderr
    assert re.match(r"^cell_f1=[\d.e+-]+ class_accuracy=[\d.e+-]+$",
                    result.stdout.strip())


def test_gradcheck_toy_passes_and_exit_code_tracks_tolerance():
    result = run_cli("gradcheck", "--k", "2", "--style", "dhlc", "--toy", "--seed", "1")
    assert result.returncode == 0, result.stderr
    match = re.search(r"max_rel_error=([\d.e+-]+)", result.stdout)
    assert match and float(match.group(1)) < 1e-3

    strict = run_cli("gradcheck", "--k", "1", "--toy", "--seed", "1",
                     "--tolerance", "1e-18")
    assert strict.returncode == 1
    reported = float(re.search(r"max_rel_error=([\d.e+-]+)", strict.stdout).group(1))
    assert reported > 1e-18


def test_flops_prints_totals():
    result = run_cli("flops", "--k", "2", "--style", "ahlc")
    assert result.returncode == 0
    params = int(re.search(r"params=(\d+)", result.stdout).group(1))
    flops = int(re.search(r"flops=(\d+)", result.stdout).group(1))
    assert params > 0 and flops > 0


def test_viz_writes_one_pgm_per_level(tmp_path):
    out = tmp_path / "maps"
    result = run_cli("viz", "--k", "2", "--style", "ahlc", "--seed", "2",
                     "--out", str(out))
    assert result.returncode == 0, result.stderr
    want_hw = {2: (16, 16), 3: (8, 8), 4: (4, 4), 5: (2, 2)}
    for l, (h, w) in want_hw.items():
        pw, ph, _ = helpers.read_pgm(out / f"stage{l}.pgm")
        assert (ph, pw) == (h, w)


def test_viz_rerun_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        result = run_cli("viz", "--k", "1", "--seed", "4", "--out", str(out))
        assert result.returncode == 0, result.stderr
    for l in range(2, 6):
        assert (out_a / f"stage{l}.pgm").read_bytes() == \
            (out_b / f"stage{l}.pgm").read_bytes()


def test_accelerated_flags_accepted():
    result = run_cli("flops", "--k", "2", "--accelerated")
    assert result.returncode == 0
    bad = run_cli("flops", "--k", "3", "--accelerated")
    assert bad.returncode == 1
    assert "error:" in bad.stderr


def test_share_weights_flag_shrinks_params():
    shared = run_cli("flops", "--k", "2", "--share-weights")
    full = run_cli("flops", "--k", "2")
    assert shared.returncode == full.returncode == 0
    shared_params = int(re.search(r"params=(\d+)", shared.stdout).group(1))
    full_params = int(re.search(r"params=(\d+)", full.stdout).group(1))
    assert shared_params < full_params


def test_explicit_weights_out_path(tmp_path):
    target = tmp_path / "model.cbnw"
    result = run_cli("train", "--k", "1", "--steps", "1", "--n", "4",
                     "--out", str(tmp_path / "run"), "--weights-out", str(target))
    assert result.returncode == 0, result.stderr
    assert target.exists() and target.read_bytes()[:4] == b"CBNW"
    bad = run_cli("train", "--k", "1", "--steps", "0", "--n", "2",
                  "--out", str(tmp_path / "run2"),
                  "--weights-out", str(tmp_path / "no-such-dir" / "w.cbnw"))
    assert bad.returncode == 1
    assert "error:" in bad.stderr


def test_weights_out_directory_is_rejected_before_training(tmp_path):
    target = tmp_path / "weights"
    target.mkdir()
    result = run_cli("train", "--k", "1", "--steps", "1", "--n", "4",
                     "--out", str(tmp_path / "run"), "--weights-out", str(target))
    assert result.returncode == 1
    assert f"cannot write weights to {str(target)!r}" in result.stderr
    assert not (tmp_path / "run" / "loss.csv").exists()


def test_weights_out_fifo_is_rejected_before_training(tmp_path):
    target = tmp_path / "weights.fifo"
    os.mkfifo(target)
    result = run_cli("train", "--k", "1", "--steps", "1", "--n", "4",
                     "--out", str(tmp_path / "run"), "--weights-out", str(target))
    assert result.returncode == 1
    assert result.stderr == (f"error: cannot write weights to {str(target)!r}: "
                             "exists and is not a regular file\n")
    assert list((tmp_path / "run").iterdir()) == []
    assert stat.S_ISFIFO(target.lstat().st_mode)


TRAIN = ["train", "--k", "1", "--steps", "1", "--n", "4", "--out", "{out}"]


@pytest.mark.parametrize("argv, refused, make, what", [
    (TRAIN, "{out}/loss.csv", os.mkdir, "loss table"),
    (TRAIN + ["--weights-out", "{tmp}/w.fifo"], "{tmp}/w.fifo", os.mkfifo, "weights"),
    (TRAIN + ["--weights-out", "{out}/loss.csv"], "{out}/loss.csv", None, "weights"),
    (["viz", "--k", "1", "--out", "{out}"], "{out}/stage4.pgm", os.mkdir, "heatmap"),
], ids=["loss-csv-directory", "weights-fifo", "duplicate-output", "stage4-directory"])
def test_bad_output_is_refused_before_any_work(
        tmp_path, monkeypatch, capsys, argv, refused, make, what):
    def never(*args, **kwargs):
        raise AssertionError("work started before the outputs were checked")

    for name in ("build_task", "build_cbnet", "train", "cbnet_forward"):
        monkeypatch.setattr(cli, name, never)

    def state(path):  # None while absent
        st = os.lstat(path) if os.path.lexists(path) else None
        return st and (st.st_mode, st.st_ino, st.st_mtime_ns)

    out = tmp_path / "run"
    out.mkdir()
    refused = refused.format(out=out, tmp=tmp_path)
    if make:
        make(refused)
    before = state(refused)
    assert main([a.format(out=out, tmp=tmp_path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert f"cannot write {what} to {refused!r}" in err
    assert err.count(refused) == 1
    assert state(refused) == before
    assert [str(p) for p in out.iterdir()] == ([refused] if make is os.mkdir else [])
    if make is os.mkdir:
        assert os.listdir(refused) == []


def test_loss_csv_failing_rename_leaves_no_temp_file_and_keeps_destination(
        tmp_path, monkeypatch, capsys):
    out = tmp_path / "run"
    out.mkdir()
    (out / "loss.csv").write_text("old\n")
    real_replace = os.replace

    def replace(src, dst):
        if os.path.basename(dst) == "loss.csv":
            raise OSError("replace failed")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    assert main(["train", "--k", "1", "--steps", "2", "--n", "2", "--out", str(out)]) == 1
    assert "replace failed" in capsys.readouterr().err
    assert (out / "loss.csv").read_text() == "old\n"
    assert [p.name for p in out.iterdir()] == ["loss.csv"]


def test_train_under_a_file_size_limit_exits_1_and_leaves_no_partial_file(tmp_path):
    # 12 loss rows come to about 265 bytes, more than 200, so loss.csv is the first
    # write to fail
    out = tmp_path / "run"

    def limit():
        resource.setrlimit(resource.RLIMIT_FSIZE, (200, 200))

    result = run_cli("train", "--k", "1", "--steps", "12", "--n", "4", "--out", str(out),
                     preexec_fn=limit)
    assert result.returncode == 1
    assert "error:" in result.stderr and "File too large" in result.stderr
    assert list(out.iterdir()) == []
