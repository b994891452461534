"""Grammar-driven fuzzing of the command line, run in process through main.

Every argv drawn here must end in one of the four exit codes (0 confirmed,
1 refuted, 2 input error, 3 cap refusal or undecided), whether main returns
it or argparse raises SystemExit with it, and must print no traceback; what
a --json run prints must validate against its command's schema. The
grammar covers every command, `chain:N` frames with N from -2 to 4 (with and
without self-loop lists, and malformed specs), small formulas with the
`tpow`/`spow` macros, integer options from -3 to 6, and valuation JSON with
worlds from -2 to 10^6. Its malformed choices include a non-decimal digit in
a macro and JSON nested deeper than the decoder's recursion limit. Frame
files come from FRAME_FILES, written once into the directory the module
runs in: one well-formed frame and four that break a world rule (a float
world, a boolean world count, a three-element edge and an edge past the
frame). `--all-chains` stays within the chain sizes above:
at 6 it means 64 exhaustive checks of up to 2^18 valuations per candidate
index, seconds per example. Well-formed choices are drawn more often than
malformed ones, so most runs get past parsing.
"""

import contextlib
import io
import json

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from modalbench.cli import main
from modalbench.schemas import schema_for

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

NAMES = ("x", "y", "z")
DEEP_ARRAY = "[" * 20_000 + "]" * 20_000  # past the JSON decoder's recursion limit
INTS = st.integers(-3, 6)


def mostly(good, bad):
    """good three times as often as bad."""
    return st.sampled_from((good, good, good, bad)).flatmap(lambda pick: pick)


FRAME_FILES = {
    "frame.json": '{"worlds": 3, "edges": [[0, 1], [1, 2], [2, 2]]}',
    "float-world.json": '{"worlds": 3, "edges": [[0, 1.5]]}',
    "bool-worlds.json": '{"worlds": true, "edges": []}',
    "three-element-edge.json": '{"worlds": 3, "edges": [[0, 1, 2]]}',
    "edge-past-the-frame.json": '{"worlds": 3, "edges": [[0, 3]]}',
}

WORLDS = mostly(st.integers(-2, 6), st.integers(-2, 10 ** 6))

FRAMES = mostly(
    st.one_of(
        st.builds("chain:{}".format, st.integers(0, 4)),
        st.integers(0, 4).flatmap(lambda n: st.builds(
            lambda loops: f"chain:{n}:refl={','.join(map(str, sorted(loops)))}",
            st.sets(st.integers(0, max(n - 1, 0)), max_size=n))),
        st.just("frame.json")),
    st.one_of(
        st.builds("chain:{}".format, st.integers(-2, 4)),
        st.builds(lambda n, loops: f"chain:{n}:refl={','.join(map(str, loops))}",
                  st.integers(-2, 4), st.lists(st.integers(-2, 5), max_size=3)),
        st.sampled_from(["chain:", "chain:x", "chain:2:rofl=1", "chain:2:refl=a",
                         "chain:2:refl=1:0", "no-such-frame.json", "."]),
        st.sampled_from(sorted(set(FRAME_FILES) - {"frame.json"}))),
)

ATOMS = st.one_of(
    st.sampled_from(NAMES + ("T", "F")),
    st.builds("tpow({})".format, st.integers(0, 3)),
    st.builds("spow({})".format, st.integers(0, 3)),
)
FORMULAS = mostly(
    st.recursive(ATOMS, lambda inner: st.one_of(
        st.builds(lambda op, f: f"{op}{f}", st.sampled_from(["~", "[]", "<>"]), inner),
        st.builds(lambda a, op, b: f"({a} {op} {b})", inner,
                  st.sampled_from(["&", "|", "->"]), inner)), max_leaves=4),
    st.sampled_from(["x |", "(x", "tpow(", "tpow(x)", "tpow(²)", "Q", ""]),
)
STATEMENTS = mostly(
    st.builds(lambda a, op, b: f"{a} {op} {b}", FORMULAS, st.sampled_from(["=", "<="]),
              FORMULAS),
    FORMULAS,
)
VALUATIONS = mostly(
    st.dictionaries(st.sampled_from(NAMES + ("q",)), st.lists(WORLDS, max_size=3),
                    max_size=3).map(lambda d: str(d).replace("'", '"')),
    st.sampled_from(["{x}", "[]", '{"x": 1}', '{"x": [0.5]}', '{"x": [true]}',
                     "@no-such-valuation.json", DEEP_ARRAY]),
)
WORLD_LISTS = st.lists(WORLDS, max_size=3).map(lambda ws: ",".join(map(str, ws)))
VAR_LISTS = st.lists(st.sampled_from(NAMES + ("w",)), min_size=1, max_size=4).map(",".join)
PIVOTS = mostly(st.sampled_from(NAMES), st.just("X"))


def req(name, values):
    """One `--name=value`."""
    return values.map(lambda v: [f"--{name}={v}"])


def opt(name, values):
    """Zero or one `--name=value`."""
    return st.one_of(st.just([]), req(name, values))


def command(name, *parts):
    return st.tuples(*parts).map(lambda chunks: [name] + [a for c in chunks for a in c])


ARGV = st.one_of(
    command("eval", req("frame", FRAMES), req("formula", FORMULAS), opt("val", VALUATIONS)),
    command("check-valid", req("frame", FRAMES), req("stmt", STATEMENTS),
            opt("vars", VAR_LISTS), opt("cap", INTS), opt("sample", INTS), opt("seed", INTS)),
    command("lemma", req("n", INTS), opt("refl", WORLD_LISTS)),
    command("chains", req("size", INTS)),
    command("transitivity", req("frame", FRAMES), req("max", INTS)),
    command("fixpoint", req("frame", FRAMES), req("term", FORMULAS), req("pivot", PIVOTS),
            opt("base", WORLD_LISTS), opt("params", VALUATIONS)),
    command("consequence", req("frame", FRAMES), opt("frame", FRAMES),
            opt("premise", STATEMENTS), opt("premise", STATEMENTS),
            req("conclusion", STATEMENTS), opt("budget", INTS)),
    command("stabilize", opt("frame", FRAMES), opt("all-chains", st.integers(-3, 4)),
            req("term", FORMULAS), req("pivot", PIVOTS), req("max", INTS),
            opt("cap", INTS), opt("sample", INTS), opt("seed", INTS)),
).flatmap(lambda argv: st.sampled_from([argv, argv + ["--json"]]))


@pytest.fixture(scope="module", autouse=True)
def frame_files(tmp_path_factory):
    """Run this module's tests in a directory holding FRAME_FILES."""
    path = tmp_path_factory.mktemp("frames")
    for name, text in FRAME_FILES.items():
        (path / name).write_text(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(path)
        yield


@settings(max_examples=300, derandomize=True, deadline=None)
@given(argv=ARGV)
@example(argv=["fixpoint", "--frame=chain:2", "--term=<>x|x", "--pivot=x", "--base=-1"])
@example(argv=["chains", "--size=-1"])
@example(argv=["stabilize", "--all-chains=-1", "--term=x", "--pivot=x", "--max=1"])
@example(argv=["eval", "--frame=no-such-frame.json", "--formula=x"])
@example(argv=["stabilize", "--all-chains=2", "--term=<>x|x", "--pivot=x", "--max=-1",
               "--json"])
def test_every_run_ends_in_an_exit_code(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err, (argv, err)
    if "--json" in argv and out:
        jsonschema.validate(json.loads(out), schema_for(argv[0]))


def run(argv):
    """main's exit code, standard output and standard error for one argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own refusals
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_input_error(argv):
    code, _, err = run(argv)
    assert code == 2, (argv[:3], code, err[-300:])
    assert err.startswith("error:") and "Traceback" not in err, err[-300:]


@pytest.mark.parametrize("argv", [
    pytest.param(["eval", "--frame=chain:2", "--formula=tpow(²)"], id="non-decimal-digit"),
    pytest.param(["eval", "--frame=chain:2", "--formula=tpow(" + "1" * 5000 + ")"],
                 id="macro-past-the-int-digit-limit"),
    pytest.param(["eval", "--frame=chain:2", "--formula=x",
                  '--val={"x": [' + "1" * 5000 + "]}"],
                 id="valuation-past-the-int-digit-limit"),
    pytest.param(["eval", "--frame=chain:2", "--formula=x", f"--val={DEEP_ARRAY}"],
                 id="deep-inline-valuation"),
])
def test_former_tracebacks_are_input_errors(argv):
    assert_input_error(argv)


@pytest.mark.parametrize("depth, argv", [
    (20_000, ["eval", "--frame=chain:2", "--formula=x", "--val=@{}"]),
    (100_000, ["eval", "--frame={}", "--formula=x"]),
], ids=["deep-valuation-file", "deep-frame-file"])
def test_deep_json_files_are_input_errors(tmp_path, depth, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth)
    assert_input_error([arg.format(path) for arg in argv])


@pytest.mark.parametrize("name", sorted(set(FRAME_FILES) - {"frame.json"}))
def test_frame_files_that_break_a_world_rule_are_input_errors(name):
    assert_input_error(["transitivity", f"--frame={name}", "--max=2"])
