"""Random command lines and configuration documents, run through the CLI in
process: each returns or exits with 0, 1 or 2, and no other exception (nor,
with warnings as errors, any warning) escapes ``main``.  Standard error
stays short, even where a drawn value is a string of 10 000 characters.

The inputs are tiny and the number pools small, so that no drawn command
allocates or runs for long.
"""

import contextlib
import io
import json
import math
import os

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from chebdiff2d import analyze, write_coeff_csv, write_coeff_json
from chebdiff2d.cli import main

DEEP = "[" * 100000 + "]" * 100000  # too deep for the JSON decoder
LONG = "x" * 10_000  # a refused value that a message must not quote whole

CONFIG = {
    "problem": {"r": 1, "s": 1, "mu1": 3.0, "mu2": 2.0, "p": 2},
    "test_function": {"kind": "class-member", "max_k": 8, "max_j": 8},
    "deltas": [1e-2, 1e-3, 1e-4],
    "gamma": 1.5,
    "trials_per_delta": 2,
}

@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


def run(workdir, argv, config=json.dumps(CONFIG)) -> tuple[int, str]:
    """``main(argv)``'s exit code and standard error, run in ``workdir``
    after the input files are written afresh (a drawn ``--output`` may have
    overwritten them): CSV and JSON coefficient files, a JSON file too
    deep to decode, and the configuration ``config``."""
    grid = analyze(lambda t, u: t**3 * u + t, 4, 3)
    write_coeff_csv(grid, workdir / "in.csv")
    write_coeff_json(grid, workdir / "in.json")
    (workdir / "deep.json").write_text(DEEP)
    (workdir / "config.json").write_text(config)
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)  # every path drawn, and output_path ".", lies in it
    try:
        with (contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err)):
            code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    finally:
        os.chdir(cwd)
    event(f"{argv[0]} exits {code}")
    return code, err.getvalue()


# valid calls, as (command, flags); a draw drops or redraws some flags of
# one and adds a few flags of its command
CALLS = (
    ("differentiate", {"--input": "in.csv", "--r": "1", "--gamma": "1.5",
                       "--n": "4", "--output": "out.csv"}),
    ("differentiate", {"--input": "in.json", "--r": "1", "--gamma": "1.5",
                       "--delta": "1e-3", "--mu1": "3", "--mu2": "2",
                       "--p": "2", "--output": "out.csv"}),
    ("experiment", {"--config": "config.json", "--output": "out"}),
    ("cross", {"--n": "6", "--gamma": "1.5", "--r": "1"}),
    ("validate", {}),
)
FLAGS = {
    "differentiate": ("--input", "--r", "--gamma", "--n", "--output", "--delta",
                      "--eval-grid", "--s", "--mu1", "--mu2", "--p",
                      "--level-constant"),
    "experiment": ("--config", "--output", "--gamma"),
    "cross": ("--n", "--gamma", "--r", "--count"),
    "validate": ("--json", "--count"),
}
PATHS = ("in.csv", "in.json", "deep.json", "config.json", "missing.csv", ".",
         "out.csv", "out", "no-dir/out.csv")
NUMBERS = ("0", "1", "2", "3", "4", "16", "-1", "1.5", "1e-3", "0.5", "inf",
           "nan", "1e308", "2000000", "abc", "")


def values(flag):
    """A value of the kind ``flag`` takes (None: no value), or any value."""
    if flag in ("--count", "--json"):
        fitting = (None,)
    else:
        fitting = PATHS if flag in ("--input", "--config", "--output") else NUMBERS
    return (st.sampled_from(fitting + (LONG,))
            | st.sampled_from((None, LONG) + PATHS + NUMBERS))


@st.composite
def command_lines(draw):
    command, flags = draw(st.sampled_from(CALLS))
    pairs = []
    for flag, value in flags.items():
        choice = draw(st.sampled_from(["keep", "keep", "drop", "redraw"]))
        if choice != "drop":
            pairs.append((flag, value if choice == "keep" else draw(values(flag))))
    for flag in draw(st.lists(st.sampled_from(FLAGS[command]), max_size=3)):
        pairs.append((flag, draw(values(flag))))
    if command == "validate" and all(pair == ("--json", None) for pair in pairs):
        pairs.append(("--count", None))  # the suite itself is not fuzzed
    argv = [command]
    for flag, value in pairs:
        argv += [flag] if value is None else [flag, value]
    return argv


@settings(deadline=None, database=None, max_examples=60)
@given(argv=command_lines())
@example(argv=["validate", "--json"])
@example(argv=["experiment", "--config", "deep.json", "--output", "out"])
@example(argv=["differentiate", "--input", "deep.json", "--r", "1",
               "--gamma", "1.5", "--n", "4", "--output", "out.csv"])
@example(argv=["differentiate", "--input", LONG, "--r", "1",
               "--gamma", "1.5", "--n", "4", "--output", "out.csv"])
@example(argv=["differentiate", "--input", "in.csv", "--r", LONG,
               "--gamma", "1.5", "--n", "4", "--output", "out.csv"])
@example(argv=["cross", "--n", "6", "--gamma", "1.5", "--r", "1",
               "--count", LONG])
def test_command_lines_exit_cleanly(workdir, argv):
    code, err = run(workdir, argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err and len(err) < 500


KEYS = ("problem", "test_function", "noise", "deltas", "gamma", "metrics",
        "trials_per_delta", "output_path", "r", "s", "mu1", "mu2", "p",
        "level_constant", "kind", "seed", "max_k", "max_j", "epsilon", "id",
        "mode", "sead", "", LONG)
SCALARS = st.sampled_from([
    None, True, False, -1, 0, 1, 2, 3, 7, 40, 0.5, 1.5, 1e-3, 1e-300, 1e308,
    10**400, math.inf, -math.inf, math.nan, "", "x", "inf", "l2w", "sup",
    "lqw:4", "lqw:x", "uniform-random", "single-coefficient", "class-member",
    "named-analytic", "exp-cos", "<deep>", LONG, "lqw:" + LONG])
JSON_VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3), max_leaves=6)


@st.composite
def documents(draw):
    """The text of CONFIG with a few fields set, added or removed; a value
    "<deep>" becomes a nesting of arrays too deep to decode."""
    doc = json.loads(json.dumps(CONFIG))
    for _ in range(draw(st.integers(0, 3))):
        sections = [doc] + [doc[name] for name in ("problem", "test_function",
                                                   "noise")
                            if isinstance(doc.get(name), dict)]
        section = draw(st.sampled_from(sections))
        key = draw(st.sampled_from(KEYS))
        if draw(st.booleans()):
            section[key] = draw(JSON_VALUES)
        else:
            section.pop(key, None)
    return json.dumps(doc).replace('"<deep>"', DEEP)


@settings(deadline=None, database=None, max_examples=80)
@given(text=documents())
@example(text=DEEP)
@example(text=json.dumps(dict(CONFIG, gamma=json.loads("[" * 900 + "]" * 900))))
# int(1e308) has 309 digits, too many for the spec's float arithmetic
@example(text=json.dumps(dict(CONFIG, problem=dict(CONFIG["problem"], r=1e308))))
def test_configuration_documents_exit_cleanly(workdir, text):
    # "sweep" is a directory name no drawn command line writes to: a drawn
    # "differentiate --output out" may have left a file named "out"
    code, err = run(workdir, ["experiment", "--config", "config.json",
                              "--output", "sweep"], config=text)
    assert code in (0, 1)
    assert "Traceback" not in err and len(err) < 500
