"""Every run of the command line ends in a report or a named exit, on any small scheme document.

Hypothesis draws scheme documents (random relation tables and adjacency
lists, small family members with fields dropped, retyped or truncated, and
JSON text cut short) and option values (``--vertex``, ``--tol``, the cell
of ``predict``), and runs one subcommand on each in process.  Whatever the
input, the exit code is 0, 1 or 2, no exception leaves ``main``, stderr
holds no traceback, and ``--json`` stdout is empty or one report that a
parser refusing the bare tokens NaN and Infinity reads.  The run is
derandomized, so tier-1 sees the same examples every time.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import terwlab as tw
from terwlab.cli import main
from terwlab.generators import scheme_to_json

#: valid documents the perturbations start from: an odd cycle, the Odd graph O_4, a folded cube, and
#: the 8-cycle, which is not almost-bipartite
FAMILY_DOCS = [scheme_to_json(s) for s in (tw.odd_cycle(3), tw.odd_graph(3), tw.folded_cube(3),
                                           tw.scheme_from_graph([[(i - 1) % 8, (i + 1) % 8] for i in range(8)]))]

#: values of the wrong type for any field
JUNK = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=3), st.just([]), st.just({}),
                 st.lists(st.integers(-1, 3), max_size=2))


@st.composite
def adjacency_docs(draw):
    """Random neighbour lists: asymmetric, repeated, self-naming or out of range at times."""
    n = draw(st.integers(0, 8))
    adjacency = draw(st.lists(st.lists(st.integers(-1, n), max_size=4), min_size=n, max_size=n))
    if draw(st.booleans()):  # symmetric, as a graph's lists are
        edges = {(min(x, y), max(x, y)) for x, row in enumerate(adjacency) for y in row if 0 <= y < n and y != x}
        adjacency = [sorted({y for e in edges for y in e if x in e and y != x}) for x in range(n)]
    D = draw(st.integers(0, 5))
    return {"n": n, "D": D, "relation": {"kind": "distance_graph", "adjacency": adjacency}}


@st.composite
def explicit_docs(draw):
    """Random class tables: symmetric with a zero diagonal at times, and D their largest class or not."""
    n = draw(st.integers(0, 6))
    matrix = draw(st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        matrix = [[0 if x == y else matrix[min(x, y)][max(x, y)] for y in range(n)] for x in range(n)]
    D = max((max(row) for row in matrix), default=0) if draw(st.booleans()) else draw(st.integers(-1, 5))
    return {"n": n, "D": D, "relation": {"kind": "explicit", "matrix": matrix}}


@st.composite
def perturbed_family_docs(draw):
    """A family member with one field dropped, retyped or truncated, or left whole."""
    doc = json.loads(json.dumps(draw(st.sampled_from(FAMILY_DOCS))))
    relation = doc["relation"]
    how = draw(st.sampled_from(["whole", "drop", "retype", "truncate", "entry"]))
    if how == "drop":
        target = draw(st.sampled_from([doc, relation]))
        del target[draw(st.sampled_from(sorted(target)))]
    elif how == "retype":
        target = draw(st.sampled_from([doc, relation]))
        target[draw(st.sampled_from(sorted(target)))] = draw(JUNK)
    elif how == "truncate":
        relation["adjacency"] = relation["adjacency"][:draw(st.integers(0, len(relation["adjacency"])))]
    elif how == "entry":
        row = draw(st.sampled_from(relation["adjacency"]))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.one_of(JUNK, st.integers(-2, doc["n"] + 1)))
    return doc


def _text(doc):
    return json.dumps(doc, allow_nan=True)


SCHEME_TEXTS = st.one_of(
    adjacency_docs().map(_text),
    explicit_docs().map(_text),
    perturbed_family_docs().map(_text),
    # JSON cut short, or not JSON at all
    st.tuples(perturbed_family_docs().map(_text), st.integers(0, 60)).map(lambda p: p[0][:p[1]]),
    st.text(max_size=8),
)

SUBCOMMANDS = st.sampled_from([["validate"], ["analyze"], ["decompose"], ["multiplicities"],
                               ["multiplicities", "--oracle"], ["qs"], ["verify"], ["predict"]])

TOLS = st.one_of(st.none(), st.sampled_from(["nan", "inf", "-inf", "0", "-1e-9", "1e-300", "1e-12", "1e-6", "0.5"]),
                 st.floats(min_value=1e-15, max_value=10.0).map(repr))


def strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


def _run(argv):
    """(exit code, stdout, stderr) of ``main(argv)`` in process; an argparse error exits 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=250, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(text=SCHEME_TEXTS, sub=SUBCOMMANDS, vertex=st.integers(-2, 9), tol=TOLS,
       cell=st.tuples(st.integers(-1, 4), st.integers(-1, 4)), as_json=st.booleans())
# a document without vertices: the relation table is empty, and its largest class was read without a default
@example(text='{"n": 0, "D": 1, "relation": {"kind": "distance_graph", "adjacency": []}}', sub=["validate"],
         vertex=0, tol=None, cell=(0, 0), as_json=True)
@example(text='{"n": 0, "D": 0, "relation": {"kind": "explicit", "matrix": []}}', sub=["verify"],
         vertex=0, tol=None, cell=(0, 0), as_json=True)
def test_every_subcommand_ends_in_a_report_or_a_named_exit(text, sub, vertex, tol, cell, as_json):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scheme.json")
        with open(path, "w") as fh:
            fh.write(text)
        argv = [*sub, "--scheme", path, "--vertex", str(vertex)]
        if sub == ["predict"]:
            argv += ["--t", str(cell[0]), "--d", str(cell[1])]
        if tol is not None:
            argv.append(f"--tol={tol}")
        if as_json:
            argv.append("--json")
        code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, text, code, err)
    assert "Traceback" not in err, (argv, text, err)
    if as_json and out:
        assert isinstance(strict_json(out), dict), (argv, text, out)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(family=st.sampled_from(["odd_cycle", "odd_graph", "folded_cube", "cube"]), D=st.integers(-2, 5),
       tol=TOLS)
def test_gen_ends_in_a_file_or_a_named_exit(family, D, tol):
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "out.json")
        argv = ["gen", "--family", family, "--D", str(D), "--out", out_path] + ([f"--tol={tol}"] if tol else [])
        code, out, err = _run(argv)
        assert code in (0, 2), (argv, code, err)
        assert "Traceback" not in err and out == ""
        assert os.path.exists(out_path) == (code == 0)
