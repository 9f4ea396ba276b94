import os
import re
import stat
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbnet import (
    BackboneSpec,
    CBNetConfig,
    ConfigError,
    TOY_SPEC,
    WeightFormatError,
    apply_state,
    build_backbone,
    build_cbnet,
    build_head,
    load_weights,
    save_weights,
    state_dict,
)
from cbnet import cli, weights
from cbnet.composite import WeightsMismatch
from cbnet.viz import write_pgm
from cbnet.weights import write_atomic

SMALL = BackboneSpec(num_stages=2, stem_channels=4, stage_channels=(4, 8),
                     image_size=(16, 16))


def test_round_trip_is_byte_identical(tmp_path):
    bb = build_backbone(SMALL, 1)
    first = tmp_path / "a.cbnw"
    second = tmp_path / "b.cbnw"
    save_weights(dict(bb.state()), first)
    loaded = load_weights(first)
    save_weights(loaded, second)
    assert first.read_bytes() == second.read_bytes()


def test_loaded_arrays_match_and_keep_order(tmp_path):
    named = {"x": np.arange(6, dtype=np.float64).reshape(2, 3),
             "vec": np.array([1.5]),
             "w": np.zeros((2, 1, 1, 1))}
    path = tmp_path / "t.cbnw"
    save_weights(named, path)
    loaded = load_weights(path)
    assert list(loaded) == list(named)
    for name in named:
        assert np.array_equal(loaded[name], named[name])
        assert loaded[name].shape == named[name].shape


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.cbnw"
    path.write_bytes(b"XXXX" + struct.pack("<II", 1, 0))
    with pytest.raises(WeightFormatError, match="magic"):
        load_weights(path)


def test_truncated_payload_names_tensor(tmp_path):
    path = tmp_path / "ok.cbnw"
    save_weights({"stem.conv.weight": np.ones((2, 2, 1, 1))}, path)
    blob = path.read_bytes()
    (tmp_path / "cut.cbnw").write_bytes(blob[:-9])
    with pytest.raises(WeightFormatError) as err:
        load_weights(tmp_path / "cut.cbnw")
    assert "stem.conv.weight" in str(err.value)


# bytes kept of the 28-byte file of one tensor 'a' of one float, and the
# field the cut falls in
@pytest.mark.parametrize("keep, what", [
    (0, "magic"), (2, "magic"), (6, "version"), (10, "tensor count"), (13, "name length"),
    (14, "tensor name"), (15, "ndim of 'a'"), (18, "dims of 'a'"), (27, "payload of 'a'")],
    ids=["empty", "magic", "version", "count", "name-length", "name", "ndim", "dims", "payload"])
def test_a_truncated_file_is_refused_naming_the_file(tmp_path, keep, what):
    path = tmp_path / "ok.cbnw"
    save_weights({"a": np.ones(1)}, path)
    cut = tmp_path / "cut.cbnw"
    cut.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(WeightFormatError) as err:
        load_weights(cut)
    assert str(err.value) == f"{cut}: truncated file while reading {what}"


def test_duplicate_names_rejected(tmp_path):
    entry = struct.pack("<H", 1) + b"a" + struct.pack("<B", 1) + struct.pack("<I", 1) \
        + struct.pack("<d", 2.0)
    path = tmp_path / "dup.cbnw"
    path.write_bytes(b"CBNW" + struct.pack("<II", 1, 2) + entry + entry)
    with pytest.raises(WeightFormatError, match="duplicate"):
        load_weights(path)


def test_trailing_data_rejected(tmp_path):
    path = tmp_path / "t.cbnw"
    save_weights({"a": np.ones(1)}, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(WeightFormatError, match="trailing"):
        load_weights(path)


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "v9.cbnw"
    path.write_bytes(b"CBNW" + struct.pack("<II", 9, 0))
    with pytest.raises(WeightFormatError, match="version"):
        load_weights(path)


@pytest.mark.parametrize("k", [2, 3])
def test_single_backbone_file_replicates_into_every_backbone(tmp_path, k):
    single = build_backbone(SMALL, 21)
    path = tmp_path / "single.cbnw"
    save_weights(dict(single.state()), path)

    net = build_cbnet(CBNetConfig(num_backbones=k, spec=SMALL), 99)
    apply_state(net, load_weights(path))
    reference = dict(single.state())
    for bb in net.backbones:
        for name, value in bb.state():
            assert np.array_equal(value, reference[name]), name


def test_full_model_save_load_round_trip(tmp_path):
    net = build_cbnet(CBNetConfig(num_backbones=2, spec=SMALL), 3)
    path = tmp_path / "net.cbnw"
    save_weights(state_dict(net), path)
    other = build_cbnet(CBNetConfig(num_backbones=2, spec=SMALL), 4)
    apply_state(other, load_weights(path))
    mine = dict(net.state())
    for name, value in other.state():
        assert np.array_equal(value, mine[name]), name


# -- failure atomicity -----------------------------------------------------------


def _model_bytes(net):
    return b"".join(value.tobytes() for _, value in net.state())


@pytest.mark.parametrize("defect", ["missing", "shape"])
def test_failed_full_load_leaves_model_untouched(defect):
    net = build_cbnet(CBNetConfig(num_backbones=2, spec=SMALL), 5)
    named = {name: value.copy() + 1.0 for name, value in state_dict(
        build_cbnet(CBNetConfig(num_backbones=2, spec=SMALL), 6)).items()}
    last = list(named)[-1]
    if defect == "missing":
        del named[last]
    else:
        named[last] = np.zeros(named[last].size + 1)
    before = _model_bytes(net)
    with pytest.raises(WeightsMismatch, match=last):
        apply_state(net, named)
    assert _model_bytes(net) == before


def test_failed_single_backbone_load_leaves_model_untouched():
    named = {name: value + 1.0 for name, value in build_backbone(SMALL, 7).state()}
    last = list(named)[-1]
    del named[last]
    net = build_cbnet(CBNetConfig(num_backbones=2, spec=SMALL), 8)
    before = _model_bytes(net)
    with pytest.raises(WeightsMismatch, match=last):
        apply_state(net, named)
    assert _model_bytes(net) == before


@pytest.mark.parametrize("name", ["b1.stem.bn.running_var", "stage2.bn1.running_var"])
def test_negative_running_var_is_named_and_nothing_is_copied(name):
    # a "b1." name is a whole-model file, a bare stage name a single-backbone one
    source = build_cbnet(CBNetConfig(num_backbones=2, spec=SMALL), 6)
    state = source.state() if name.startswith("b1.") else source.backbones[0].state()
    named = {key: value + 1.0 for key, value in state}
    named[name][-1] = -1.0
    net = build_cbnet(CBNetConfig(num_backbones=2, spec=SMALL), 5)
    before = _model_bytes(net)
    with pytest.raises(ConfigError, match=re.escape(
            f"tensor {name!r}: batchnorm running_var has negative entries")):
        apply_state(net, named)
    assert _model_bytes(net) == before


@pytest.mark.parametrize("name", ["b1.stem.bn.running_var", "b2.stage1.conv1.weight",
                                  "stage2.bn1.running_var", "stem.conv.weight"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_mapping_is_named_and_nothing_is_copied(name, bad):
    # a "b1."/"b2." name is a whole-model mapping, a bare name a single-backbone one
    source = build_cbnet(CBNetConfig(num_backbones=2, spec=SMALL), 6)
    state = source.state() if name.startswith("b") else source.backbones[0].state()
    named = {key: value + 1.0 for key, value in state}
    named[name].flat[0] = bad
    net = build_cbnet(CBNetConfig(num_backbones=2, spec=SMALL), 5)
    before = _model_bytes(net)
    with pytest.raises(ConfigError, match=re.escape(f"tensor {name!r} holds NaN or inf")):
        apply_state(net, named)
    assert _model_bytes(net) == before


@pytest.mark.parametrize("extra", ["stage9.conv1.weight", "junk"])
def test_single_backbone_file_rejects_names_no_backbone_holds(extra):
    named = {name: value + 1.0 for name, value in build_backbone(SMALL, 7).state()}
    named[extra] = np.ones(2)
    net = build_cbnet(CBNetConfig(num_backbones=2, spec=SMALL), 8)
    before = _model_bytes(net)
    with pytest.raises(WeightsMismatch, match=re.escape(repr(extra))):
        apply_state(net, named)
    assert _model_bytes(net) == before


def test_single_backbone_file_loads_into_accelerated_net():
    spec = BackboneSpec(num_stages=3, stem_channels=4, stage_channels=(4, 8, 8),
                        image_size=(16, 16))
    single = dict(build_backbone(spec, 9).state())
    net = build_cbnet(CBNetConfig(num_backbones=2, accelerated=True, spec=spec), 10)
    apply_state(net, single)
    for bb in net.backbones:
        for name, value in bb.state():
            assert np.array_equal(value, single[name]), name


@pytest.mark.parametrize("kw, first_shared", [
    (dict(num_backbones=2), "stem.conv.weight"),
    (dict(num_backbones=3), "stem.conv.weight"),
    (dict(num_backbones=2, accelerated=True), "stage3.down.conv.weight"),
])
def test_shared_array_copies_that_differ_are_named_and_nothing_is_copied(kw, first_shared):
    unshared = state_dict(build_cbnet(CBNetConfig(spec=TOY_SPEC, **kw), 15))
    net = build_cbnet(CBNetConfig(share_weights=True, spec=TOY_SPEC, **kw), 16)
    before = _model_bytes(net)
    want = re.escape(f"'b1.{first_shared}' and 'b2.{first_shared}'")
    with pytest.raises(WeightsMismatch, match=want):
        apply_state(net, unshared)
    assert _model_bytes(net) == before
    shared = state_dict(build_cbnet(CBNetConfig(share_weights=True, spec=TOY_SPEC, **kw), 17))
    apply_state(net, shared)
    for name, value in net.state():
        assert np.array_equal(value, shared[name]), name


# -- the head rules of a full file ---------------------------------------------------


def _net_and_head():
    return build_cbnet(CBNetConfig(num_backbones=2, spec=SMALL), 11), build_head(SMALL, 12)


def _file_with_head():
    """A `cbnet train` layout: the net's tensors, then the head's as "head.*"."""
    net, head = build_cbnet(CBNetConfig(num_backbones=2, spec=SMALL), 13), build_head(SMALL, 14)
    named = {name: value + 1.0 for name, value in state_dict(net).items()}
    named.update({f"head.{name}": value + 1.0 for name, value in head.state()})
    return named


def test_file_with_head_loads_net_and_head():
    net, head = _net_and_head()
    named = _file_with_head()
    apply_state(net, named, head=head)
    for name, value in net.state():
        assert np.array_equal(value, named[name]), name
    for name, value in head.state():
        assert np.array_equal(value, named[f"head.{name}"]), name


def test_file_without_head_tensors_loads_net_and_leaves_head_untouched():
    net, head = _net_and_head()
    named = {name: value for name, value in _file_with_head().items()
             if not name.startswith("head.")}
    before = _model_bytes(head)
    apply_state(net, named, head=head)
    for name, value in net.state():
        assert np.array_equal(value, named[name]), name
    assert _model_bytes(head) == before


@pytest.mark.parametrize("defect", ["missing", "unknown"])
def test_bad_head_tensor_is_named_and_nothing_is_copied(defect):
    net, head = _net_and_head()
    named = _file_with_head()
    if defect == "missing":
        bad = "head.cls.bias"
        del named[bad]
    else:
        bad = "head.box.weight"
        named[bad] = np.ones(3)
    before = _model_bytes(net), _model_bytes(head)
    with pytest.raises(WeightsMismatch, match=re.escape(repr(bad))):
        apply_state(net, named, head=head)
    assert (_model_bytes(net), _model_bytes(head)) == before


def test_head_tensors_are_ignored_without_a_head():
    net, _ = _net_and_head()
    named = _file_with_head()
    del named["head.cls.bias"]
    named["head.box.weight"] = np.ones(3)
    apply_state(net, named)
    for name, value in net.state():
        assert np.array_equal(value, named[name]), name


def test_failed_save_leaves_no_file(tmp_path):
    path = tmp_path / "w.cbnw"
    with pytest.raises(WeightFormatError, match="bad tensor name"):
        save_weights({"a": np.ones(3), "": np.ones(2)}, path)
    assert list(tmp_path.iterdir()) == []


def test_failed_save_keeps_existing_destination(tmp_path):
    path = tmp_path / "w.cbnw"
    save_weights({"a": np.arange(4.0)}, path)
    before = path.read_bytes()
    with pytest.raises(WeightFormatError, match="dim above"):
        save_weights({"a": np.ones(2), "b": np.zeros((2 ** 32, 0))}, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("call", ["fsync", "replace"])
def test_save_failing_in_the_os_leaves_no_temp_file_and_keeps_destination(
        tmp_path, monkeypatch, call):
    path = tmp_path / "w.cbnw"
    save_weights({"a": np.arange(4.0)}, path)
    before = path.read_bytes()

    def fail(*args):
        raise OSError(f"{call} failed")

    monkeypatch.setattr(os, call, fail)
    with pytest.raises(OSError, match=f"{call} failed"):
        save_weights({"a": np.ones(2)}, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_save_syncs_complete_file_before_rename(tmp_path, monkeypatch):
    synced = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        synced.append(os.fstat(fd).st_size)
        real_fsync(fd)

    def replace(src, dst):
        assert synced == [os.path.getsize(src)]
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    path = tmp_path / "w.cbnw"
    save_weights({"a": np.arange(6.0).reshape(2, 3)}, path)
    assert synced == [path.stat().st_size]


def test_write_atomic_keeps_destination_when_write_raises_midway(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")

    def write(fh):
        fh.write(b"new bytes, half of them")
        fh.flush()
        raise RuntimeError("write failed")

    with pytest.raises(RuntimeError, match="write failed"):
        write_atomic(path, write)
    assert path.read_bytes() == b"old"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("make, kind", [(os.mkfifo, stat.S_ISFIFO), (os.mkdir, stat.S_ISDIR)])
def test_save_refuses_a_destination_that_is_not_a_regular_file(tmp_path, make, kind):
    path = tmp_path / "w.cbnw"
    make(path)
    with pytest.raises(OSError, match=re.escape(f"{str(path)!r} exists and is not a regular")):
        save_weights({"a": np.ones(3)}, path)
    assert kind(path.lstat().st_mode)
    assert list(tmp_path.iterdir()) == [path]


# -- the one rule that creates a file -----------------------------------------

PLANTED = b"planted!"  # the first bytes the faked name source draws for each file


def _write(how, out):
    """Run one writer into `out`; returns the file names it leaves there."""
    if how == "save_weights":
        save_weights({"a": np.arange(3.0)}, out / "w.cbnw")
        return ["w.cbnw"]
    if how == "write_pgm":
        write_pgm(np.array([[1, 2]], dtype=np.uint8), out / "p.pgm")
        return ["p.pgm"]
    if how == "train":
        assert cli.main(["train", "--k", "1", "--steps", "1", "--n", "2", "--out", str(out)]) == 0
        return ["loss.csv", "weights.cbnw"]
    cli._check_outputs(str(out), [("loss table", str(out / "loss.csv")),
                                  ("weights", str(out / "weights.cbnw"))])
    return []


@pytest.mark.parametrize("plant", ["symlink", "regular-file"])
@pytest.mark.parametrize("how", ["save_weights", "write_pgm", "train", "check_outputs"])
def test_no_writer_follows_or_replaces_what_is_at_a_temporary_name(
        tmp_path, monkeypatch, how, plant):
    # a link to a victim, or a regular file, at the <path>.<pid>.tmp name that
    # a fixed-name writer would open, and at the first name the helper draws
    ref, out = tmp_path / "ref", tmp_path / "out"
    ref.mkdir()
    out.mkdir()
    names = _write(how, ref)
    victim = tmp_path / "victim"
    victim.write_bytes(b"victim\n")
    planted = []
    for name in names or ["loss.csv", "weights.cbnw"]:
        for token in (os.getpid(), PLANTED.hex()):
            at = out / f"{name}.{token}.tmp"
            if plant == "symlink":
                at.symlink_to(victim)
            else:
                at.write_bytes(b"planted\n")
            planted.append(at)
    drawn = []

    def token(nbytes):  # the planted name first, then a fresh one, for each file
        drawn.append(PLANTED if len(drawn) % 2 == 0 else os.urandom(nbytes))
        return drawn[-1]

    monkeypatch.setattr(weights, "_token", token)
    assert _write(how, out) == names
    assert victim.read_bytes() == b"victim\n"
    for at in planted:
        if plant == "symlink":
            assert os.readlink(at) == str(victim)
        else:
            assert not at.is_symlink() and at.read_bytes() == b"planted\n"
    for name in names:
        assert not (out / name).is_symlink()
        assert (out / name).read_bytes() == (ref / name).read_bytes()
    assert sorted(out.iterdir()) == sorted(planted + [out / name for name in names])
    # each file was created at the second name drawn for it, past the planted one
    assert drawn and len(drawn) % 2 == 0 and set(drawn[::2]) == {PLANTED}


@pytest.mark.parametrize("umask", [0o022, 0o002, 0o027], ids=lambda m: f"umask-{m:03o}")
def test_every_output_gets_the_mode_open_gives_it(tmp_path, umask):
    saved = os.umask(umask)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        names = [*_write("save_weights", tmp_path), *_write("write_pgm", tmp_path)]
    finally:
        os.umask(saved)
    want = stat.S_IMODE((tmp_path / "plain").stat().st_mode)
    assert want == 0o666 & ~umask
    assert [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in names] == [want] * 2


def _cbnw(name, values):
    raw = name.encode()
    values = np.asarray(values, dtype="<f8")
    return (b"CBNW" + struct.pack("<II", 1, 1) + struct.pack("<H", len(raw)) + raw
            + struct.pack("<BI", 1, values.size) + values.tobytes())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_payload_rejected_naming_tensor(tmp_path, bad):
    path = tmp_path / "w.cbnw"
    path.write_bytes(_cbnw("b1.stem.conv.bias", [1.0, bad, 2.0]))
    with pytest.raises(WeightFormatError, match="'b1.stem.conv.bias' holds NaN or inf"):
        load_weights(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_rejects_non_finite_before_writing(tmp_path, bad):
    path = tmp_path / "w.cbnw"
    with pytest.raises(WeightFormatError, match="'b' holds NaN or inf"):
        save_weights({"a": np.ones(3), "b": np.array([0.5, bad])}, path)
    assert list(tmp_path.iterdir()) == []


def test_empty_tensor_name_rejected_on_load(tmp_path):
    path = tmp_path / "w.cbnw"
    path.write_bytes(_cbnw("", [1.0]))
    with pytest.raises(WeightFormatError, match="empty tensor name"):
        load_weights(path)


def test_more_dims_than_numpy_supports_rejected(tmp_path):
    path = tmp_path / "w.cbnw"
    path.write_bytes(b"CBNW" + struct.pack("<II", 1, 1) + struct.pack("<H", 1) + b"a"
                     + struct.pack("<B", 65) + struct.pack("<65I", *[0] * 65))
    with pytest.raises(WeightFormatError, match="'a' has 65 dims"):
        load_weights(path)


VALID = {"stem.conv.weight": np.linspace(-1.5, 2.0, 12).reshape(2, 1, 2, 3),
         "stem.bn.gamma": np.array([0.25, -0.0]), "e": np.zeros((0, 3))}


def _valid_blob():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "v.cbnw")
        save_weights(VALID, path)
        with open(path, "rb") as fh:
            return fh.read()


def _mutations(draw):
    blob = bytearray(_valid_blob())
    blob[draw(st.integers(0, len(blob) - 1))] = draw(st.integers(0, 255))
    return bytes(blob)


CBNW_BYTES = st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=64).map(lambda tail: b"CBNW" + struct.pack("<II", 1, 1) + tail),
    st.composite(_mutations)(),
)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(CBNW_BYTES)
def test_any_bytes_raise_format_error_or_round_trip(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path, again = os.path.join(tmp, "in.cbnw"), os.path.join(tmp, "out.cbnw")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            named = load_weights(path)
        except WeightFormatError:
            return
        save_weights(named, again)
        with open(again, "rb") as fh:
            assert fh.read() == blob
