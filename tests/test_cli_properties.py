"""Property test of the CLI exit contract over values drawn from the option table.

Every run must end in exit 0, in exit 2 with one "error:" line on stderr, or
(verify only) in exit 1 after a failed check; never in an exception.  Values
include NaN, infinities, negatives and zero; sizes stay tiny (-M <= 50,
--runs <= 8, --res <= 5, T/dt <= 1e4).
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from rosmac.cli import OPTIONS, main

SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0])


def _floats(low: float, high: float) -> st.SearchStrategy[float]:
    """A special value one time in five, else a float in [low, high]."""
    return st.integers(0, 4).flatmap(lambda pick: SPECIAL if pick == 0 else st.floats(low, high))


def _joined(values: st.SearchStrategy[float], count: int) -> st.SearchStrategy[str]:
    return st.lists(values, min_size=count, max_size=count).map(
        lambda parts: ",".join(repr(part) for part in parts)
    )


# Per-dest value strategies; T <= 10 (the default) and dt >= 1e-3 keep T/dt <= 1e4.
VALUES = {
    "m": _floats(0.1, 5.0),
    "c": _floats(0.1, 5.0),
    "k": _floats(0.1, 5.0),
    "x0": _joined(_floats(0.0, 3.0), 2),
    "T": _floats(1e-3, 5.0),
    "dt": _floats(1e-3, 1.0),
    "grid": _joined(_floats(-1.0, 5.0), 4),
    "res": st.integers(-1, 5),
    "M": st.integers(-1, 50),
    "runs": st.integers(-1, 8),
    "seed": st.one_of(st.integers(-1, 100), st.just(2**64)),
    "stream": st.integers(-1, 10),
    "stride": st.integers(-1, 4),
    "workers": st.integers(-1, 3),
    "save_paths": st.integers(-2, 2),
    "alpha": _floats(1.0, 5.0),
    "p_orders": _joined(_floats(0.0, 4.0), 2),
    "t_min": _floats(0.0, 3.0),
    "svg": st.booleans(),
}
SUBCOMMANDS = sorted({name for option in OPTIONS for name in option.commands})


# Always drawn: the parameters, and the sizes whose defaults are not tiny.
ALWAYS = ("m", "c", "k", "M", "runs", "res")


@st.composite
def invocations(draw):
    """A subcommand, some of its options, whether to write --out and whether to pass a config."""
    subcommand = draw(st.sampled_from(SUBCOMMANDS))
    values = {}
    for option in OPTIONS:
        if subcommand not in option.commands or option.dest == "out":
            continue
        if option.dest in ALWAYS or draw(st.booleans()):
            values[option.dest] = draw(VALUES[option.dest])
    return subcommand, values, draw(st.booleans()), draw(st.booleans())


def _argv(subcommand: str, values: dict, config_path) -> list[str]:
    if config_path is not None:
        config_path.write_text(json.dumps({"options": values}))
        return [subcommand, "--config", str(config_path)]
    argv = [subcommand]
    for option in OPTIONS:
        if option.dest not in values:
            continue
        value = values[option.dest]
        if option.type is bool:
            argv += [option.flag] if value else []
        else:
            argv.append(f"{option.flag}={value}")
    return argv


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_properties")


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(invocation=invocations())
def test_every_invocation_exits_0_1_or_2(scratch, invocation):
    subcommand, values, with_out, via_config = invocation
    if with_out:
        values["out"] = str(scratch / "out")
    argv = _argv(subcommand, values, scratch / "config.json" if via_config else None)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    err = stderr.getvalue()
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
    elif code == 1:
        assert subcommand == "verify" and err.startswith("FAILED "), (argv, err)
    else:
        assert code == 0 and err == "", (argv, code, err)
