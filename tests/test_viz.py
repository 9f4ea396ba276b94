import os

import numpy as np
import pytest

import helpers
from cbnet import (
    BackboneSpec,
    CBNetConfig,
    ShapeError,
    Tensor4,
    build_cbnet,
    cbnet_forward,
    channel_mean,
    heatmap_channel_mean,
    normalize_gray,
    write_pgm,
)


def test_hand_computed_channel_mean_example(tmp_path):
    feature = Tensor4(np.array([[[[1.0, 2.0], [3.0, 4.0]],
                                 [[3.0, 2.0], [1.0, 0.0]]]]))
    path = tmp_path / "x.pgm"
    mean = heatmap_channel_mean(feature, path)
    assert np.array_equal(mean, [[2.0, 2.0], [2.0, 2.0]])
    w, h, gray = helpers.read_pgm(path)
    assert (w, h) == (2, 2)
    assert np.all(gray == 0)


def test_constant_feature_writes_all_zero_payload(tmp_path):
    feature = Tensor4(np.full((1, 4, 3, 3), 7.5))
    path = tmp_path / "c.pgm"
    heatmap_channel_mean(feature, path)
    _, _, gray = helpers.read_pgm(path)
    assert np.all(gray == 0)


def test_normalization_spans_full_range():
    gray = normalize_gray(np.array([[0.0, 1.0], [2.0, 4.0]]))
    assert gray.dtype == np.uint8
    assert gray.min() == 0 and gray.max() == 255
    assert np.array_equal(gray, [[0, 64], [128, 255]])


def test_pgm_bytes_exact(tmp_path):
    path = tmp_path / "p.pgm"
    write_pgm(np.array([[0, 128], [255, 1]], dtype=np.uint8), path)
    assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 128, 255, 1])


def test_heatmap_dims_follow_pyramid_levels(tmp_path):
    spec = BackboneSpec()
    net = build_cbnet(CBNetConfig(num_backbones=1, spec=spec), 1)
    pyramid = cbnet_forward(net, helpers.random_image(spec, 2))
    want_hw = {2: (16, 16), 3: (8, 8), 4: (4, 4), 5: (2, 2)}
    for l in range(2, 6):
        path = tmp_path / f"stage{l}.pgm"
        heatmap_channel_mean(pyramid.level(l), path)
        w, h, _ = helpers.read_pgm(path)
        assert (h, w) == want_hw[l]


def test_heatmap_rejects_batched_features():
    with pytest.raises(ShapeError):
        channel_mean(Tensor4(np.zeros((2, 3, 4, 4))))


def test_heatmap_is_deterministic(tmp_path):
    feature = Tensor4(np.random.default_rng(5).standard_normal((1, 6, 4, 4)))
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    heatmap_channel_mean(feature, a)
    heatmap_channel_mean(feature, b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("grid, match", [
    ([[0.0, 1.0], [np.nan, 2.0]], "NaN or inf"),
    ([[0.0, 1.0], [np.inf, 2.0]], "NaN or inf"),
    ([[0.0, 1.0], [-np.inf, 2.0]], "NaN or inf"),
    ([[-1e308, 0.0], [1e308, 2.0]], "range overflows"),  # finite, but hi - lo is inf
], ids=["nan", "inf", "-inf", "range-overflow"])
def test_non_finite_map_is_rejected_before_any_file_is_written(tmp_path, grid, match):
    grid = np.array(grid)
    with pytest.raises(ValueError, match=match):
        normalize_gray(grid)
    with pytest.raises(ValueError, match=match):
        heatmap_channel_mean(Tensor4(grid.reshape(1, 1, 2, 2)), tmp_path / "x.pgm")
    assert list(tmp_path.iterdir()) == []


def test_pgm_failing_rename_leaves_no_temp_file_and_keeps_destination(tmp_path, monkeypatch):
    path = tmp_path / "p.pgm"
    write_pgm(np.array([[1, 2]], dtype=np.uint8), path)
    before = path.read_bytes()

    def fail(*args):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="replace failed"):
        write_pgm(np.array([[3, 4], [5, 6]], dtype=np.uint8), path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_pgm_refuses_a_directory_destination(tmp_path):
    path = tmp_path / "p.pgm"
    path.mkdir()
    with pytest.raises(OSError, match="not a regular file"):
        write_pgm(np.zeros((2, 2), dtype=np.uint8), path)
    assert path.is_dir()
    assert list(tmp_path.iterdir()) == [path]
