"""SVG emitters: well-formedness, escaping, and input validation."""
import hashlib
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from phaserep.svgplot import Series, heatmap_grid, line_plot

SVG_NS = "{http://www.w3.org/2000/svg}"


def _parse(svg: str) -> ET.Element:
    root = ET.fromstring(svg)
    assert root.tag == f"{SVG_NS}svg"
    return root


def test_line_plot_is_well_formed():
    svg = line_plot(
        [Series("a", [0.0, 1.0, 2.0], [0.5, 0.7, 0.6])],
        title="demo", xlabel="x", ylabel="y",
    )
    root = _parse(svg)
    assert root.attrib["width"] == "640"
    assert root.attrib["height"] == "420"
    texts = [t.text for t in root.iter(f"{SVG_NS}text")]
    assert "demo" in texts and "x" in texts and "y" in texts and "a" in texts


def test_line_plot_draws_each_series():
    series = [
        Series("first", [0.0, 1.0], [0.1, 0.2]),
        Series("second", [0.0, 1.0], [0.3, 0.4]),
    ]
    root = _parse(line_plot(series))
    assert len(list(root.iter(f"{SVG_NS}polyline"))) == 2
    assert len(list(root.iter(f"{SVG_NS}circle"))) == 4


def test_line_plot_escapes_markup_in_labels():
    svg = line_plot([Series("<b>&x", [0.0, 1.0], [0.0, 1.0])],
                    title="a<b>&c")
    _parse(svg)  # would raise if the markup leaked through
    assert "&lt;b&gt;&amp;x" in svg


def test_line_plot_error_bars_only_for_finite_positive_err():
    x, y = [0.0, 1.0, 2.0], [0.5, 0.6, 0.7]
    plain = line_plot([Series("a", x, y)])
    with_err = line_plot(
        [Series("a", x, y, yerr=[0.1, float("nan"), 0.0])])
    # one drawable error bar -> stem plus two caps
    assert with_err.count("<line ") == plain.count("<line ") + 3
    _parse(with_err)


def test_line_plot_input_validation():
    with pytest.raises(ValueError, match="at least one"):
        line_plot([])
    with pytest.raises(ValueError, match="matching lengths"):
        line_plot([Series("a", [0.0, 1.0], [0.5])])
    with pytest.raises(ValueError, match="matching lengths"):
        line_plot([Series("a", [0.0, 1.0], [0.5, 0.6], yerr=[0.1])])


def test_line_plot_handles_constant_data():
    svg = line_plot([Series("flat", [0.0, 1.0], [0.5, 0.5])])
    _parse(svg)


def test_line_plot_is_deterministic():
    series = [Series("a", [0.0, 1.0], [0.1, 0.9])]
    assert line_plot(series, title="t") == line_plot(series, title="t")


def test_heatmap_grid_is_well_formed():
    rng = np.random.default_rng(0)
    mats = [rng.normal(size=(16, 16)), np.eye(16)]
    svg = heatmap_grid(mats, ["reconstructed", "ideal"], title="chi")
    root = _parse(svg)
    rects = list(root.iter(f"{SVG_NS}rect"))
    assert len(rects) >= 2 * 256  # one cell per entry, per panel
    texts = [t.text for t in root.iter(f"{SVG_NS}text")]
    assert "reconstructed" in texts and "ideal" in texts and "chi" in texts


def test_heatmap_grid_zero_matrix_uses_unit_scale():
    svg = heatmap_grid([np.zeros((4, 4))], ["m"])
    _parse(svg)
    assert ">1</text>" in svg


def test_heatmap_grid_input_validation():
    with pytest.raises(ValueError, match="one title per matrix"):
        heatmap_grid([np.eye(4)], [])
    with pytest.raises(ValueError, match="one title per matrix"):
        heatmap_grid([], [])
    with pytest.raises(ValueError, match="square"):
        heatmap_grid([np.zeros((4, 2))], ["m"])
    with pytest.raises(ValueError, match="square"):
        heatmap_grid([np.eye(4), np.eye(8)], ["a", "b"])


# Figures the golden CLI runs do not draw, each pinned as the sha256 of its
# bytes, so that any change to the emitters must keep every figure's bytes.
_NAN = float("nan")
PINNED_FIGURES = {
    "heatmap-4x4": (
        lambda: heatmap_grid([np.outer(np.arange(1, 5), np.arange(4)) / 7.0],
                             ["m"], title="four"),
        "ffd5b4102cc6c10e9792fe51b5f68aa4e5de49b67a91c5c5aa1c5eea5fe3cba9"),
    "heatmap-zero": (
        lambda: heatmap_grid([np.zeros((4, 4))], ["zero"]),
        "4a6a09399a9cf318f7df1ae7a203773df2788c017bb6bf7a85c20e953d4d49af"),
    "heatmap-three-panels": (
        lambda: heatmap_grid(
            [np.eye(8), np.full((8, 8), 0.25),
             np.arange(64).reshape(8, 8) * (1.0 - 1.0j) / 90.0],
            ["a", "b", "c"], title="three"),
        "fd1c75c9c4ed8528d9203235c620ca7dad61d797f1d675a4cf9cbfaf2b731a42"),
    "line-constant": (
        lambda: line_plot([Series("flat", [0.0, 1.0, 2.0], [0.5, 0.5, 0.5])],
                          "c", "x", "y"),
        "e946a151920205144f68d38454fead13c227308ab6ae5c160be2983b166bf768"),
    "line-odd-error-bars": (
        lambda: line_plot(
            [Series("e", [0.0, 1.0, 2.0, 3.0], [0.2, 0.4, 0.3, 0.6],
                    yerr=[0.05, _NAN, 0.0, -0.1])],
            "err", "x", "y"),
        "e5db8cd7ffd4021592c630a2433e48902bf6a95ae047e5460f3109f21707622d"),
    "line-one-point": (
        lambda: line_plot([Series("one", [1.0], [2.0])], "p", "x", "y"),
        "054c9e56526f8f6c136e80fd8d9464d8a61e2a3d171b56e0c3f4a3f788d29ab1"),
    "line-markup": (
        lambda: line_plot([Series("<b>&x", [0.0, 1.0], [0.0, 1.0])],
                          title="a<b>&c", xlabel="<x>", ylabel="y & z"),
        "e50fce633d5485d2d1534448cce38649c411a88230514b8b28277479860f23f6"),
    "line-bare": (
        lambda: line_plot([Series("a", [0.0, 1.0, 2.0], [1.0, 3.0, 2.0]),
                           Series("b", [0.5, 1.5], [2.5, 0.5],
                                  yerr=[0.2, 0.1])]),
        "0c706a9b12103ca53277df204da34a21a07c5e77bf606f80bdeafcb6bdf15f48"),
}


@pytest.mark.parametrize("name", sorted(PINNED_FIGURES))
def test_pinned_figure_bytes(name):
    draw, digest = PINNED_FIGURES[name]
    svg = draw()
    _parse(svg)
    assert hashlib.sha256(svg.encode()).hexdigest() == digest
