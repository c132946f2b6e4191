"""Malformed input never escapes as a traceback.

Hypothesis drives the in-process ``cli.main`` with broken triangulation,
sphere and certificate files and with broken word arguments.  Each input
is built to be invalid, so every case must exit 1 with nothing on stdout
and exactly one ``error:`` line on stderr; an exception that escapes
``main`` fails the test with its traceback.
"""

import contextlib
import io
import json

from hypothesis import assume, given, settings, strategies as st

from flipforge.cli import main

# derandomized, so that every run of the suite tries the same cases
EXAMPLES = settings(max_examples=60, derandomize=True)

TRI = {"n": 4, "diagonals": [[0, 2], [0, 3], [0, 4]], "colors": [1, 1, 2, 2], "signs": [1, -1, 1, -1]}
SPHERE = {"n": 3, "north": [[0, 2], [0, 3]], "south": [[1, 3], [1, 4]],
          "signs": {f"{h}:{k}": 1 for h in "NS" for k in (1, 2, 3)}}
CERT = [{"word": [1, 2, 3]}, {"word": [2, 1, 3], "kind": "K1"}, {"word": [-1, -2, 3], "kind": "K2"}]

# values that are no integer at all, or overflow int()
NOT_INT = st.sampled_from([None, "x", "", [1], {}, float("inf"), float("-inf"), float("nan")])


def not_the_int(value: int):
    """Field values other than the JSON integer value: values int() rejects,
    other integers, and the floats, numeric strings and booleans that int()
    would map onto an integer."""
    return st.one_of(NOT_INT, st.integers(-50, 50).filter(lambda v: v != value),
                     st.sampled_from([float(value), value + 0.5, str(value), True, False]))


def bad_diagonals(count: int, top: int):
    """Diagonal lists for an (n+2)-gon with vertices 0..top that hold count
    chords in a valid triangulation: the wrong number, or one bad entry."""
    pair = st.lists(st.integers(-2, top + 2), min_size=2, max_size=2)
    bad_entry = st.sampled_from([None, 7, [1], [1, 2, 3], [0, 1e999], [1e999, 2], ["x", 2],
                                 [0, float("nan")], [0, top + 3], [2, 2], [0, 1], [-1, 2],
                                 [0, 2.0], [0.5, 2], ["0", 2], [0, "3"], [False, 2], [0, True]])
    with_bad = st.tuples(st.lists(pair, min_size=count - 1, max_size=count - 1), bad_entry,
                         st.integers(0, count - 1))
    return st.one_of(
        st.lists(pair, max_size=count + 2).filter(lambda ds: len(ds) != count),
        with_bad.map(lambda x: x[0][: x[2]] + [x[1]] + x[0][x[2]:]),
        st.sampled_from([None, 3, 1e999, "", {}]),
    )


def bad_list(length: int, bad_items):
    """A non-list, a list of the wrong length, or a list with one bad item."""
    item_at = st.tuples(bad_items, st.integers(0, length - 1))
    return st.one_of(
        st.sampled_from([None, 5, "1111", {"0": 1}]),
        st.lists(st.sampled_from([1, -1]), max_size=length + 2).filter(lambda xs: len(xs) != length),
        item_at.map(lambda x: [1] * x[1] + [x[0]] + [1] * (length - 1 - x[1])),
    )


DROP = object()  # a field value that deletes the field


def corrupted(base: dict, field: str, value):
    obj = dict(base)
    if value is DROP:
        del obj[field]
    else:
        obj[field] = value
    return obj


BAD_TRIANGULATION = st.one_of(
    not_the_int(4).map(lambda v: corrupted(TRI, "n", v)),
    bad_diagonals(3, 5).map(lambda v: corrupted(TRI, "diagonals", v)),
    bad_list(4, st.sampled_from([1.0, 2.5, True, "1", None, [1]])).map(lambda v: corrupted(TRI, "colors", v)),
    bad_list(4, st.sampled_from([0, 2, -2, 1.0, -1.0, True, False, "1", None, 1e999]))
    .map(lambda v: corrupted(TRI, "signs", v)),
    st.sampled_from(["n", "diagonals"]).map(lambda f: corrupted(TRI, f, DROP)),
)

BAD_SIGN_ENTRY = st.one_of(
    st.tuples(st.sampled_from(["X:1", "N:", "N:x", "N:-1", "n:1", "", "N1", "N:0", "S:4", "N:9", "N:01"]),
              st.just(1)),
    st.tuples(st.sampled_from(["N:1", "S:2"]),
              st.sampled_from([0, 2, -2, 1.0, True, None, "1", 1e999, [1]])),
)

# rejected while the sphere is read, before any command looks at it
BAD_SPHERE = st.one_of(
    not_the_int(3).map(lambda v: corrupted(SPHERE, "n", v)),
    st.tuples(st.sampled_from(["north", "south"]), bad_diagonals(2, 4))
    .map(lambda x: corrupted(SPHERE, x[0], x[1])),
    BAD_SIGN_ENTRY.map(lambda kv: corrupted(SPHERE, "signs", {**SPHERE["signs"], kv[0]: kv[1]})),
    st.sampled_from([None, [1], 1, "N:1"]).map(lambda v: corrupted(SPHERE, "signs", v)),
    st.sampled_from(["n", "north", "south"]).map(lambda f: corrupted(SPHERE, f, DROP)),
)

# refused when read
UNSIGNED_SPHERE = st.lists(st.sampled_from(sorted(SPHERE["signs"])), min_size=1, unique=True).map(
    lambda drop: corrupted(SPHERE, "signs", {k: v for k, v in SPHERE["signs"].items() if k not in drop}))

BAD_LINE = st.one_of(
    st.sampled_from(["{", "x", "[1,", "nope"]),
    # a number int() would accept among integer letters
    st.sampled_from([2.0, 1.5, "1", "12", True, False]).map(
        lambda a: json.dumps({"word": [3, a, 2], "kind": "K1"})),
    st.sampled_from([[1, 2], 7, "w", None, {"w": [1]}]).map(json.dumps),
    st.one_of(st.sampled_from([None, 5, 1e999]),
              st.lists(st.sampled_from([None, "a", 1e999, -1e999, float("nan"), [1], 2.0, 1.5, "1", "12",
                                        True, False]), min_size=1, max_size=3))
    .map(lambda w: json.dumps({"word": w, "kind": "K1"})),
)
BAD_KIND = st.sampled_from([DROP, None, "K3", "k1", 1, ""]).map(
    lambda k: json.dumps({"word": [3, 1, 2]} if k is DROP else {"word": [3, 1, 2], "kind": k}))

BAD_CERTIFICATE = st.one_of(
    st.tuples(st.integers(0, len(CERT)), BAD_LINE),
    st.tuples(st.integers(1, len(CERT)), BAD_KIND),
).map(lambda x: [json.dumps(line) for line in CERT[: x[0]]] + [x[1]]
      + [json.dumps(line) for line in CERT[x[0]:]])

# no digit, lowercase letter or comma: parse_word refuses these texts
UNPARSABLE = st.text(alphabet=" !#$%&*+./:;<=>?@[]^_{|}~XYZ", max_size=6)
BAD_WORD = st.one_of(
    UNPARSABLE,
    st.text(alphabet="0123456789", min_size=1, max_size=6).filter(lambda s: "0" in s),
    st.tuples(st.lists(st.integers(1, 9).map(str), max_size=4),
              st.sampled_from(["0", "-1", "", "X", "1.5", " ", "1e999"]), st.integers(0, 4))
    .map(lambda x: ",".join(x[0][: x[2]] + [x[1]] + x[0][x[2]:])),
    st.text(alphabet="abc123", min_size=2, max_size=5).filter(
        lambda s: not s.isdigit() and not s.isalpha()),
)
NOT_A_PERMUTATION = st.lists(st.integers(1, 9), min_size=1, max_size=6).filter(
    lambda w: sorted(w) != list(range(1, len(w) + 1))).map(lambda w: ",".join(map(str, w)))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(argv):
    code, out, err = run(argv)
    assert (code, out) == (1, ""), (argv, code, out, err)
    assert err.startswith("error: ") and err.endswith("\n") and len(err.splitlines()) == 1, (argv, err)


def write(tmp_path_factory, name: str, text: str) -> str:
    path = tmp_path_factory.getbasetemp() / name
    path.write_text(text)
    return str(path)


@EXAMPLES
@given(obj=BAD_TRIANGULATION,
       command=st.sampled_from([["readings"], ["canonical"], ["neighbors", "--mode", "signed"],
                                ["flip", "--d", "0,3"], ["render"], ["glue"]]))
def test_malformed_triangulation(tmp_path_factory, obj, command):
    f = write(tmp_path_factory, "fuzz-t.json", json.dumps(obj))
    argv = ["glue", "--north", f, "--south", f] if command == ["glue"] else [command[0], f, *command[1:]]
    assert_one_error_line(argv)


@EXAMPLES
@given(obj=BAD_SPHERE, command=st.sampled_from(["heawood-check", "four-color", "render"]))
def test_malformed_sphere(tmp_path_factory, obj, command):
    assert_one_error_line([command, write(tmp_path_factory, "fuzz-s.json", json.dumps(obj))])


@EXAMPLES
@given(obj=UNSIGNED_SPHERE, command=st.sampled_from(["heawood-check", "four-color", "render"]))
def test_sphere_with_unsigned_faces(tmp_path_factory, obj, command):
    assert_one_error_line([command, write(tmp_path_factory, "fuzz-s.json", json.dumps(obj))])


@EXAMPLES
@given(lines=BAD_CERTIFICATE, command=st.sampled_from(["check-cert", "render"]))
def test_malformed_certificate(tmp_path_factory, lines, command):
    assert_one_error_line([command, write(tmp_path_factory, "fuzz-c.jsonl", "\n".join(lines) + "\n")])


def test_empty_certificate(tmp_path_factory):
    assert_one_error_line(["check-cert", write(tmp_path_factory, "fuzz-empty.jsonl", "\n  \n")])


@EXAMPLES
@given(word=BAD_WORD, command=st.sampled_from(["phi", "std", "bigphi", "insert-trace", "class", "dstd"]))
def test_malformed_word(word, command):
    assume(not word.startswith("-"))  # argparse would read it as an option: a usage error, exit 2
    assert_one_error_line([command, word, "--mu", "1"] if command == "dstd" else [command, word])


@EXAMPLES
@given(word=st.one_of(BAD_WORD, NOT_A_PERMUTATION), first=st.booleans())
def test_malformed_permutation(word, first):
    assume(not word.startswith("-"))
    assert_one_error_line(["phi", word])
    assert_one_error_line(["signed-path", word, "123"] if first else ["signed-path", "123", word])
