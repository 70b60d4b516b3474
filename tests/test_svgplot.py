from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import rosmac
from rosmac import svgplot
from rosmac.cli import main
from rosmac.svgplot import line_chart, phase_portrait


def _parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


def test_line_chart_is_well_formed_and_deterministic():
    x = [0.0, 1.0, 2.0, 3.0]
    curves = [
        {"y": [0.0, 1.0, 0.5, 2.0], "label": "prey", "color": "#1f77b4"},
        {"y": [1.0, 0.2, 0.8, 0.1], "label": "predator", "dash": "4,3"},
    ]
    svg = line_chart(x, curves, title="demo", y_label="density")
    root = _parse(svg)
    assert root.tag.endswith("svg")
    assert svg == line_chart(x, curves, title="demo", y_label="density")
    assert "demo" in svg and "prey" in svg and "predator" in svg
    assert 'stroke-dasharray="4,3"' in svg
    assert svg.count("<polyline") == 2


def test_line_chart_handles_flat_data():
    svg = line_chart([0.0, 1.0], [{"y": [2.0, 2.0]}])
    _parse(svg)
    assert "<polyline" in svg


def test_phase_portrait_contents():
    field = np.array(
        [(0.5, 0.5, 1.0, 0.0), (0.5, 1.5, 0.0, -1.0), (1.5, 0.5, -1.0, 1.0), (1.5, 1.5, 0.0, 0.0)]
    )
    svg = phase_portrait(
        field,
        [([0.2, 0.6, 1.0], [0.2, 0.8, 0.4])],
        [(1.0, 1.0, "disc"), (0.5, 0.5, "circle"), (1.5, 1.5, "cross")],
        bounds=(0.0, 2.0, 0.0, 2.0),
        title="portrait",
    )
    root = _parse(svg)
    assert root.tag.endswith("svg")
    # Three field arrows (the zero vector is skipped), one trajectory,
    # one filled disc, one hollow circle, one cross path.
    assert svg.count("<polygon") == 3
    assert svg.count("<polyline") == 1
    assert svg.count("<circle") == 2
    assert svg.count("<path") == 1
    assert "portrait" in svg


def test_empty_ranges_widen_to_a_width_their_magnitude_keeps():
    frame = svgplot._Frame(2.0, 2.0, 3.0, 3.0, 540, 540)
    assert (frame.x_hi, frame.y_hi) == (3.0, 4.0)  # the old fallback where 1 survives
    frame = svgplot._Frame(1e17, 1e17, -1e17, -1e17, 540, 540)
    assert frame.x_hi == 1e17 + 16.0 and frame.y_hi == -1e17 + 16.0
    assert math.isfinite(frame.px(1e17)) and math.isfinite(frame.py(-1e17))
    # A step below half an ulp no longer advances: one tick, not an endless list.
    (tick,) = svgplot._tick_values(1e17 - 16.0, 1e17)
    assert 1e17 - 16.0 <= tick <= 1e17


# A flat axis at |value| >= 2**53 (division by zero) and a tick step below half
# an ulp (a loop that never ends) at the command line.
LARGE_MAGNITUDE_COMMANDS = [
    ["ensemble", "-m", "3", "-c", "1", "-k", "1e17", "--x0", "1e17,0", "-T", "1", "-M", "10",
     "--runs", "2", "--svg"],
    ["phase-portrait", "-m", "3", "-c", "1", "-k", "3", "--grid", "1e17,1e17,0,1", "--res", "2",
     "-T", "1", "--svg"],
    ["simulate-ode", "-m", "1e-20", "-c", "1e-20", "-k", "1e17", "--x0", "99999999999999984,1e17",
     "-T", "2", "--dt", "1", "--svg"],
    # Padding past the float maximum (the y-range spans more than it), and a
    # range of two subnormals, too narrow for a tick step.
    pytest.param(["simulate-ode", "-m", "1", "-c", "1", "-k", "1.7e308", "--x0", "1.7e308,0",
                  "-T", "2", "--dt", "1", "--svg"], id="simulate-ode-float-max"),
    pytest.param(["simulate-ode", "-m", "1", "-c", "1", "-k", "1", "--x0", "5e-324,0",
                  "-T", "1", "--dt", "1", "--svg"], id="simulate-ode-subnormal"),
]

# The child draws no noise: fakes.ZeroNoiseStream replaces sde.NoiseStream.
_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (600_000 * 1024, 600_000 * 1024))
from fakes import ZeroNoiseStream
from rosmac import sde
from rosmac.cli import main
sde.NoiseStream = ZeroNoiseStream
sys.exit(main(sys.argv[1:]))
"""

_COORDINATES = ("x", "y", "x1", "y1", "x2", "y2", "cx", "cy", "points", "d")


@pytest.mark.parametrize("argv", LARGE_MAGNITUDE_COMMANDS, ids=lambda argv: argv[0])
def test_charts_at_large_magnitude_render_in_bounded_memory_and_time(tmp_path, argv):
    paths = [Path(rosmac.__file__).resolve().parents[1], Path(__file__).resolve().parent]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, *argv, "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    svgs = sorted(tmp_path.glob("*.svg"))
    assert svgs
    for svg in svgs:
        _assert_finite_coordinates(svg.read_text(), svg.name)


def _assert_finite_coordinates(svg: str, label: str) -> None:
    for element in _parse(svg).iter():
        for name in _COORDINATES:
            for number in re.split(r"[\sMLml,]+", element.get(name, "")):
                assert not number or math.isfinite(float(number)), (label, name, number)


def test_ranges_at_the_float_maximum_map_to_finite_pixels():
    big = sys.float_info.max
    for ys in ([0.0, big], [-big, big], [big, big], [-big, -big], [0.0, 5e-324]):
        _assert_finite_coordinates(line_chart([0.0, 1.0], [{"y": ys}]), repr(ys))
    # A flat range at the maximum widens downward; one past it has half scale.
    assert svgplot._Frame(0.0, 1.0, big, big, 540, 540).y_lo == big - math.ulp(big)
    frame = svgplot._Frame(0.0, 1.0, -big, big, 540, 540)
    assert frame.py(big) == svgplot._MARGIN_TOP and frame.py(-big) == 540 - svgplot._MARGIN_BOTTOM


PLOT_W = 640 - 62 - 16  # default width less the left and right margins


def _polylines(svg: str) -> list[list[str]]:
    return [
        element.get("points").split(" ")
        for element in _parse(svg).iter()
        if element.tag.endswith("polyline")
    ]


def _random_walk(points: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 50.0, points)
    return x, [rng.standard_normal(points).cumsum(), rng.standard_normal(points).cumsum()]


def _m4_reference(x, y):
    """First, last, first argmin and first argmax of every pixel column, by plain loops."""
    columns: dict[int, list[int]] = {}
    for i, value in enumerate(x.tolist()):
        column = math.floor((value - x[0]) / (x[-1] - x[0]) * PLOT_W)
        columns.setdefault(min(column, PLOT_W - 1), []).append(i)
    keep = set()
    for members in columns.values():
        values = [y[i] for i in members]
        keep.update(
            (members[0], members[-1], members[values.index(min(values))],
             members[values.index(max(values))])
        )
    return columns, sorted(keep)


def _frame_points(x, y, indices, frame):
    return [f"{frame.px(x[i]):.2f},{frame.py(y[i]):.2f}" for i in indices]


def _frame_of(x, ys):
    y_lo, y_hi = min(y.min() for y in ys), max(y.max() for y in ys)
    pad = 0.05 * (y_hi - y_lo)
    return svgplot._Frame(x[0], x[-1], y_lo - pad, y_hi + pad, 640, 400)


def test_m4_decimation_keeps_column_extremes_of_a_long_random_walk():
    x, ys = _random_walk(200_000)
    svg = line_chart(x, [{"y": y} for y in ys])
    frame = _frame_of(x, ys)
    lines = _polylines(svg)
    for y, points in zip(ys, lines):
        columns, keep = _m4_reference(x, y)
        assert len(columns) == PLOT_W
        assert len(points) <= 4 * PLOT_W
        assert points == _frame_points(x, y, keep, frame)
        assert points[0] == _frame_points(x, y, [0], frame)[0]
        assert points[-1] == _frame_points(x, y, [len(x) - 1], frame)[0]
        kept = set(keep)
        for members in columns.values():
            column_kept = [y[i] for i in members if i in kept]
            assert min(column_kept) == y[members].min()
            assert max(column_kept) == y[members].max()
    # The axes come from the global extremes, which M4 keeps: the same frame,
    # ticks and labels as an undecimated chart of those extremes alone.
    extremes = sorted({0, len(x) - 1, *(int(i) for y in ys for i in (y.argmin(), y.argmax()))})
    small = line_chart(x[extremes], [{"y": y[extremes]} for y in ys])

    def axes(text):
        return [line for line in text.split("\n") if not line.startswith("<polyline")]

    assert axes(svg) == axes(small)


def test_m4_threshold_renders_every_point_up_to_four_per_column():
    x, ys = _random_walk(4 * PLOT_W + 1, seed=3)
    frame = _frame_of(x[:-1], [y[:-1] for y in ys])
    at_limit = line_chart(x[:-1], [{"y": y[:-1]} for y in ys])
    for y, points in zip(ys, _polylines(at_limit)):
        assert points == _frame_points(x, y, range(4 * PLOT_W), frame)
    over = _polylines(line_chart(x, [{"y": y} for y in ys]))
    assert all(len(points) < 4 * PLOT_W + 1 for points in over)


def test_m4_ties_keep_the_first_occurrence():
    x = np.linspace(0.0, 1.0, 8 * PLOT_W)
    y = np.zeros_like(x)
    y[::3] = 1.0  # every column holds several equal maxima and minima
    frame = svgplot._Frame(0.0, 1.0, -0.05, 1.05, 640, 400)
    (points,) = _polylines(line_chart(x, [{"y": y}]))
    assert points == _frame_points(x, y, _m4_reference(x, y)[1], frame)


def test_ensemble_svgs_identical_across_workers_and_replay(tmp_path):
    # 3,001 recorded rows: more than four per pixel column, so M4 is in play.
    args = ["ensemble", "-m", "3", "-c", "1", "-k", "3", "-T", "2", "-M", "3000",
            "--runs", "64", "--seed", "9", "--svg"]
    one, two, replay = tmp_path / "one", tmp_path / "two", tmp_path / "replay"
    assert main([*args, "--workers", "1", "--out", str(one)]) == 0
    assert main([*args, "--workers", "2", "--out", str(two)]) == 0
    assert main(["ensemble", "--config", str(one / "manifest.json"), "--out", str(replay)]) == 0
    for name in ("ensemble_n.svg", "ensemble_p.svg"):
        svg = (one / name).read_bytes()
        assert svg == (two / name).read_bytes() == (replay / name).read_bytes()
        assert all(len(points) < 3001 for points in _polylines(svg.decode()))
