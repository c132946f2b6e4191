"""Golden CLI corpus: pinned sha256 of stdout and of every written file.

A fixed argv list runs in one working directory, each command reading the
files the earlier ones wrote.  Refactors of the shape map, the flip code or
the suite registry must leave every byte of these outputs unchanged; a
deliberate output change has to re-pin the hash it moves.
"""

import hashlib
import json

from flipforge.cli import main

NORTH = {"n": 6, "diagonals": [[0, 2], [0, 6], [2, 6], [3, 5], [3, 6]],
         "signs": [1, 1, 1, -1, -1, 1]}
SOUTH = {"n": 6, "diagonals": [[0, 5], [0, 6], [1, 4], [1, 5], [2, 4]],
         "signs": [-1, -1, 1, 1, -1, -1]}
COLORED = {"n": 6, "diagonals": [[1, 3], [1, 4], [1, 6], [1, 7], [4, 6]],
           "colors": [1, 2, 2, 2, 3, 3], "signs": [1, 1, -1, -1, 1, 1]}
# three flips out of COLORED's shape
PATH = {"n": 6, "path": [[[1, 3], [1, 4], [1, 6], [1, 7], [4, 6]],
                         [[1, 4], [1, 6], [1, 7], [2, 4], [4, 6]],
                         [[1, 4], [1, 7], [2, 4], [4, 6], [4, 7]],
                         [[1, 3], [1, 4], [1, 7], [4, 6], [4, 7]]]}

# (label, argv, files the command writes)
CORPUS = [
    ("phi", ["phi", "235461", "-o", "t.json"], ["t.json"]),
    ("readings", ["readings", "t.json"], []),
    ("canonical", ["canonical", "t.json"], []),
    ("neighbors-plain", ["neighbors", "colored.json", "--mode", "plain"], []),
    ("neighbors-signed", ["neighbors", "colored.json", "--mode", "signed"], []),
    ("neighbors-homogeneous", ["neighbors", "colored.json", "--mode", "homogeneous"], []),
    ("neighbors-switched", ["neighbors", "colored.json", "--mode", "switched"], []),
    ("signed-path", ["signed-path", "324156", "453126", "--emit-cert", "cert.jsonl"],
     ["cert.jsonl"]),
    ("check-cert", ["check-cert", "cert.jsonl"], []),
    ("glue", ["glue", "--north", "north.json", "--south", "south.json", "-o", "sphere.json"],
     ["sphere.json"]),
    ("heawood-check", ["heawood-check", "sphere.json"], []),
    ("four-color", ["four-color", "sphere.json"], []),
    ("render-triangulation", ["render", "colored.json"], []),
    ("render-sphere", ["render", "sphere.json"], []),
    ("render-certificate", ["render", "cert.jsonl"], []),
    ("graph-signed", ["graph", "--kind", "signed", "--n", "4"], []),
    ("verify", ["verify", "--suite", "all", "--n", "5"], []),
    ("graph-flip", ["graph", "--kind", "flip", "--n", "5"], []),
    ("graph-switched", ["graph", "--kind", "switched", "--n", "5", "--mu", "2,3"], []),
    ("graph-signed-5", ["graph", "--kind", "signed", "--n", "5"], []),
    ("flip-signed", ["flip", "colored.json", "--d", "1,4"], []),
    ("sign-path-diagonals", ["sign-path-diagonals", "path.json"], []),
]

# Recorded before the ear-cutting and suite-registry refactor.
GOLDEN = {
    "phi": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "phi:t.json": "1b544ff1cd110b2f648fa5bc745c82e73bb4f160a95af402efa7317c24dc3b35",
    "readings": "3626b513a172c57afa87744ec0c3efaf445b6a124013706790a47277133be91c",
    "canonical": "972f50d0142b89e46145086a0a771ea9355fa9f771ecfdfb63b3dafb459e1072",
    "neighbors-plain": "5f0ce90a3a6acd3f6072fc50b35bcc5c00d44a8b99a2f970d28a337168b89500",
    "neighbors-signed": "b994f941011ff19803b6e8699e2388de3029a0555e525f29b72163c61fb6565f",
    "neighbors-homogeneous": "3983c2f077819dc44febe8d99044764436b179e9d073dbb76f543dc971ff8ba9",
    "neighbors-switched": "ad7faa5daf40e84de3695b2d7a63544ecc7da3972fecf5198d39bbe3534317a4",
    "signed-path": "05a29774c6fc0856aff7255f22fd4d9a0cefed365341c7731dc46baed0d83a97",
    "signed-path:cert.jsonl": "deb474d45257c0af5756eed75e5cb1357cf14557efd4fb4a0d981b167d4e42be",
    "check-cert": "64b79f7de8e5b12faf7f3c2ae3bd029860aee5c6d6a8c6e933e69e4bd9d8cf58",
    "glue": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "glue:sphere.json": "050c2a77e3c192d8756bc27d8c2d31817244d305d06787033240796ec2c3563b",
    "heawood-check": "99cc6fa60218b2a28f6dd2286e8fa65120e01e907d9a6d784c059ea14e503563",
    "four-color": "eb699f979a63e566ed38ccbe737df15110c4e8da1e4b7c6440cce125b4fe8739",
    "render-triangulation": "3f532a89db7628aa78627a1e33c35edcfe1ffa58dabb6b2a8e25b95ffc102b5e",
    "render-sphere": "aa2aca42ece5536912dc2c242c40c6a74524cd760fceea9ccbef282c3081654e",
    "render-certificate": "3842535656beb0f4fbf3862529a08714b44f6baeaced4addae7dfeac7d970800",
    "graph-signed": "77705c4ce09a32df866c3fcc89600c70b3c284e37fb6dd17a622cd482fed02de",
    "verify": "1a51732a5eef95ba4e32272572b3e76462ec88f23589f53d5d1ccaa9b8c6ced7",
    # Recorded before the flip kernel (flip_row, FlipTable, signed_moves).
    "graph-flip": "eef19d3964f7bffe2b7c9a0cb99ff9254336c05983b06336ca96e476a90a7cb2",
    "graph-switched": "49efb79c3e62152789d2c2bb7b056f1d3d1e313f47fe3ebfc92261b9f566660c",
    "graph-signed-5": "de40fef4627fd3b81dd76b051e3ce703604f70d0ed36ac760473f68fc6d44337",
    "flip-signed": "ba9b07d0f4903dc80c18f9681d6bccf302885ce5bd8d0fe950feaf31c2016864",
    "sign-path-diagonals": "30d6b80076aeda0cfffc76699054e6ccb7144b9a199d7744193b659dce73877b",
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_cli_corpus(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, obj in (("north", NORTH), ("south", SOUTH), ("colored", COLORED), ("path", PATH)):
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    got = {}
    for label, argv, written in CORPUS:
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 0, (label, err)
        got[label] = sha(out.encode())
        for path in written:
            got[f"{label}:{path}"] = sha((tmp_path / path).read_bytes())
    assert got == GOLDEN
