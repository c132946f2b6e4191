"""Golden CLI corpus: pinned sha256 of stdout and of every written file.

A fixed argv list runs in one working directory, each command reading the
files the earlier ones wrote.  Refactors of the shape map, the flip code or
the suite registry must leave every byte of these outputs unchanged; a
deliberate output change has to re-pin the hash it moves.
"""

import hashlib
import json

from flipforge.cli import main
from refdata import UNSIGNABLE_PATH_N3

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
# diagonal (0, 3) starts negative: it is a side of the first flip and is
# flipped by the second
PATH3 = {"n": 3, "path": [[[0, 2], [0, 3]], [[0, 3], [1, 3]], [[1, 3], [1, 4]]]}
UNSIGNABLE = {"n": 3, "path": [[list(d) for d in step] for step in UNSIGNABLE_PATH_N3]}
# ten flips at n=7: diagonal (1, 5) of the first shape is a side of five flips
# before it is flipped, so it starts negative, and (1, 7) a side of six; (2, 4)
# is never flipped but is a side of three, so it starts negative too
PATH7 = {"n": 7, "path": [[[0, 7], [1, 4], [1, 5], [1, 6], [1, 7], [2, 4]],
                          [[0, 7], [1, 4], [1, 5], [1, 7], [2, 4], [5, 7]],
                          [[0, 7], [1, 5], [1, 7], [2, 4], [2, 5], [5, 7]],
                          [[0, 7], [1, 5], [1, 6], [1, 7], [2, 4], [2, 5]],
                          [[1, 5], [1, 6], [1, 7], [1, 8], [2, 4], [2, 5]],
                          [[1, 4], [1, 5], [1, 6], [1, 7], [1, 8], [2, 4]],
                          [[1, 4], [1, 5], [1, 7], [1, 8], [2, 4], [5, 7]],
                          [[1, 4], [1, 7], [1, 8], [2, 4], [4, 7], [5, 7]],
                          [[0, 7], [1, 4], [1, 7], [2, 4], [4, 7], [5, 7]],
                          [[0, 4], [0, 7], [1, 4], [2, 4], [4, 7], [5, 7]],
                          [[0, 2], [0, 4], [0, 7], [2, 4], [4, 7], [5, 7]]]}
# the same path with its last flip taken at (4, 7), which is negative there
PATH7_UNSIGNABLE = {"n": 7, "path": PATH7["path"][:10] + [[[0, 4], [0, 5], [0, 7], [1, 4], [2, 4], [5, 7]]]}
# twelve flips at n=9: the first flip creates (3, 10), the third and the
# seventh negate it as a side, the fifth and the eighth make it positive
# again, and the ninth flips it
PATH9 = {"n": 9, "path": [[[0, 3], [0, 6], [1, 3], [3, 5], [3, 6], [6, 8], [6, 10], [8, 10]],
                          [[0, 3], [1, 3], [3, 5], [3, 6], [3, 10], [6, 8], [6, 10], [8, 10]],
                          [[0, 2], [0, 3], [3, 5], [3, 6], [3, 10], [6, 8], [6, 10], [8, 10]],
                          [[0, 2], [0, 3], [3, 5], [3, 10], [5, 10], [6, 8], [6, 10], [8, 10]],
                          [[0, 3], [1, 3], [3, 5], [3, 10], [5, 10], [6, 8], [6, 10], [8, 10]],
                          [[0, 3], [1, 3], [3, 10], [4, 10], [5, 10], [6, 8], [6, 10], [8, 10]],
                          [[0, 3], [1, 3], [3, 10], [4, 10], [5, 10], [6, 10], [7, 10], [8, 10]],
                          [[1, 3], [1, 10], [3, 10], [4, 10], [5, 10], [6, 10], [7, 10], [8, 10]],
                          [[1, 3], [1, 10], [3, 5], [3, 10], [5, 10], [6, 10], [7, 10], [8, 10]],
                          [[1, 3], [1, 5], [1, 10], [3, 5], [5, 10], [6, 10], [7, 10], [8, 10]],
                          [[1, 3], [1, 5], [1, 10], [3, 5], [5, 7], [5, 10], [7, 10], [8, 10]],
                          [[1, 5], [1, 10], [2, 5], [3, 5], [5, 7], [5, 10], [7, 10], [8, 10]],
                          [[1, 5], [1, 10], [2, 5], [3, 5], [5, 7], [5, 10], [7, 9], [7, 10]]]}
# the colored shape of the word 1,1,2,4,3,3,2,3,1,3,4,3 with seeded signs: five
# switched, six homogeneous and three signed flips, at the interactive sizes
COLORED12 = {"n": 12, "diagonals": [[0, 2], [0, 3], [0, 9], [0, 10], [3, 5], [3, 8], [3, 9],
                                    [5, 7], [5, 8], [10, 12], [10, 13]],
             "colors": [1, 1, 1, 2, 2, 3, 3, 3, 3, 3, 4, 4],
             "signs": [1, -1, 1, 1, -1, -1, -1, -1, -1, 1, 1, -1]}
# the colored shape of the word 1,2,4,1,4,3,3,4,2,4 with seeded signs: six
# switched and eight signed flips, each result a shape its table numbers
COLORED10 = {"n": 10, "diagonals": [[0, 2], [0, 4], [0, 10], [2, 4], [4, 6], [4, 9], [4, 10], [6, 8], [6, 9]],
             "colors": [1, 1, 2, 2, 3, 3, 4, 4, 4, 4], "signs": [-1, -1, -1, -1, 1, 1, 1, 1, 1, -1]}
# the first three steps of the worked pair's certificate, K2 each, with the
# second recorded as K1
SWAPPED = [{"word": [-3, -2, 4, -1, 5, -6]}, {"kind": "K2", "word": [2, 3, 4, -1, 5, -6]},
           {"kind": "K1", "word": [2, -4, -3, -1, 5, -6]}, {"kind": "K2", "word": [2, -4, 1, 3, 5, -6]}]

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
    ("verify-6", ["verify", "--suite", "all", "--n", "6"], []),
    ("graph-signed-6", ["graph", "--kind", "signed", "--n", "6"], []),
    ("verify-7", ["verify", "--suite", "all", "--n", "7"], []),
    # n=7 pairs whose certificates carry five or six K1 bridges between flips
    ("signed-path-7a", ["signed-path", "2614753", "1325647", "--emit-cert", "cert7a.jsonl"],
     ["cert7a.jsonl"]),
    ("check-cert-7a", ["check-cert", "cert7a.jsonl"], []),
    ("signed-path-7b", ["signed-path", "5641372", "3724615", "--emit-cert", "cert7b.jsonl"],
     ["cert7b.jsonl"]),
    ("check-cert-7b", ["check-cert", "cert7b.jsonl"], []),
    ("signed-path-7c", ["signed-path", "4372615", "6542173", "--emit-cert", "cert7c.jsonl"],
     ["cert7c.jsonl"]),
    ("check-cert-7c", ["check-cert", "cert7c.jsonl"], []),
    ("sign-path-diagonals-3", ["sign-path-diagonals", "path3.json"], []),
    ("sign-path-diagonals-unsignable", ["sign-path-diagonals", "unsignable.json"], []),
    ("signed-path-8", ["signed-path", "31485276", "62817354", "--emit-cert", "cert8.jsonl"],
     ["cert8.jsonl"]),
    ("check-cert-8", ["check-cert", "cert8.jsonl"], []),
    # the audits whose flip rows are built only for the shapes they read
    ("verify-switched-8", ["verify", "--suite", "switched", "--n", "8"], []),
    ("verify-homogeneous-8", ["verify", "--suite", "homogeneous", "--n", "8"], []),
    ("graph-switched-7", ["graph", "--kind", "switched", "--n", "7", "--mu", "1,3,3"], []),
    # the graph builders that turn shape indices into keys only for printing
    ("graph-cayley", ["graph", "--kind", "cayley", "--n", "4"], []),
    ("graph-switched-8", ["graph", "--kind", "switched", "--n", "8", "--mu", "2,3,3"], []),
    # the two commands that run the simplicity test most: at every insertion step,
    # and on all 1,430 shapes for each of the 29 mus of size 8
    ("insert-trace", ["insert-trace", "bacbcaab"], []),
    ("verify-diagram-8", ["verify", "--suite", "diagram", "--n", "8"], []),
    # a non-default seed (the homogeneous audit draws shapes by table order), and
    # the n=8 signed reachability battery
    ("verify-7-seeded", ["verify", "--suite", "all", "--n", "7", "--seed", "12345"], []),
    ("verify-ref1-8", ["verify", "--suite", "ref1", "--n", "8"], []),
    # a shape with 1,512 readings, and an n=9 certificate whose 49 steps hold 44 K1 exchanges
    ("phi-10", ["phi", "5,2,9,1,7,10,3,8,4,6", "-o", "t10.json"], ["t10.json"]),
    ("readings-10", ["readings", "t10.json"], []),
    ("canonical-10", ["canonical", "t10.json"], []),
    ("signed-path-9", ["signed-path", "591287364", "245978613", "--emit-cert", "cert9.jsonl"],
     ["cert9.jsonl"]),
    ("check-cert-9", ["check-cert", "cert9.jsonl"], []),
    # every neighbour mode and a signed flip at n=12
    ("neighbors-plain-12", ["neighbors", "colored12.json", "--mode", "plain"], []),
    ("neighbors-signed-12", ["neighbors", "colored12.json", "--mode", "signed"], []),
    ("neighbors-homogeneous-12", ["neighbors", "colored12.json", "--mode", "homogeneous"], []),
    ("neighbors-switched-12", ["neighbors", "colored12.json", "--mode", "switched"], []),
    ("flip-signed-12", ["flip", "colored12.json", "--d", "3,8"], []),
    # the worked pair one state below its cap and at it: the states at
    # distance < 6 from the start shape's signings number 984
    ("signed-path-refused", ["signed-path", "324156", "453126", "--max-states", "983"], []),
    ("signed-path-at-cap", ["signed-path", "324156", "453126", "--max-states", "984"], []),
    # two readings of one shape: a path of no flips, whose certificate is one word
    ("signed-path-0", ["signed-path", "1243", "1423", "--emit-cert", "z.jsonl"], ["z.jsonl"]),
    ("check-cert-0", ["check-cert", "z.jsonl"], []),
    # the Cayley graph past the smallest sizes: 720 permutations, 1,800 edges
    ("graph-cayley-6", ["graph", "--kind", "cayley", "--n", "6"], []),
    # the word commands, and bigphi on the word insert-trace reads
    ("bigphi", ["bigphi", "bacbcaab"], []),
    ("std", ["std", "bacbcaab"], []),
    ("dstd", ["dstd", "4,1,7,5,8,2,3,6", "--mu", "3,3,2"], []),
    ("class", ["class", "bacbcaab"], []),
    # an unsigned flip, and a triangulation's SVG wrapped in JSON
    ("flip-plain", ["flip", "t.json", "--d", "1,4"], []),
    ("render-json", ["render", "colored.json", "--format", "json"], []),
    # the two refusals that still print a result: a signed flip whose faces
    # carry opposite signs, and a certificate with one kind swapped
    ("flip-signed-refused", ["flip", "colored12.json", "--d", "0,2"], []),
    ("check-cert-swapped", ["check-cert", "swapped.jsonl"], []),
    # one suite with a non-default seed: the registry must hand the seed to its audit
    ("verify-homogeneous-6-seeded", ["verify", "--suite", "homogeneous", "--n", "6", "--seed", "12345"], []),
    # the closure of every fiber at n=8, and a 560-member class and its refusal one state short
    ("verify-fibers-8", ["verify", "--suite", "fibers", "--n", "8"], []),
    ("class-9", ["class", "245978613"], []),
    ("class-9-refused", ["class", "245978613", "--max-states", "559"], []),
    # a ten-flip path whose first signing negates diagonals that are sides of
    # later flips, and its variant refused at the last step
    ("sign-path-diagonals-7", ["sign-path-diagonals", "path7.json"], []),
    ("sign-path-diagonals-7-unsignable", ["sign-path-diagonals", "path7u.json"], []),
    # a diagonal a flip created, negated and made positive twice before it is flipped
    ("sign-path-diagonals-9", ["sign-path-diagonals", "path9.json"], []),
    # two n=9 searches whose tables number 3,924 and 4,853 shapes, so their
    # tie-breaks rest on the order in which new shapes are numbered
    ("signed-path-9a", ["signed-path", "837546129", "216897534", "--emit-cert", "cert9a.jsonl"],
     ["cert9a.jsonl"]),
    ("check-cert-9a", ["check-cert", "cert9a.jsonl"], []),
    ("signed-path-9b", ["signed-path", "293584761", "467315829", "--emit-cert", "cert9b.jsonl"],
     ["cert9b.jsonl"]),
    ("check-cert-9b", ["check-cert", "cert9b.jsonl"], []),
    # the signed and switched neighbours of a colored shape at n=10
    ("neighbors-signed-10", ["neighbors", "colored10.json", "--mode", "signed"], []),
    ("neighbors-switched-10", ["neighbors", "colored10.json", "--mode", "switched"], []),
]

# labels whose command exits 1 with an error on stderr, whose hash is pinned too
REFUSED = {"signed-path-refused", "flip-signed-refused", "check-cert-swapped", "class-9-refused"}

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
    # Recorded before the integer flip table (flip_table over shape indices).
    "verify-6": "ef615bb4666f88522d4a604fa76b894b2d159b0f29eb4ef02cdf3277ab4826b2",
    "graph-signed-6": "96efcb79a8aaed48b98f0672ee69a4efa7e6006fa0466abccae1eab2943edd23",
    # Recorded before the diagram audit shared one shape enumeration per call.
    "verify-7": "e5359865522ad28e40b287e975531a24fc2840cb15f80b11791bc0dfb3061a3c",
    # Recorded before the class bridge was built by construction instead of by search.
    "signed-path-7a": "275f297972739875a6c97186a77aad2c61b8bad7b0e977bc61370b18440864ce",
    "signed-path-7a:cert7a.jsonl": "b12d5aee1f591a35dc401e7f414d6219c220c02a3cda85aae42b0562daa1ee37",
    "check-cert-7a": "6fd735251a07b5365a7af1b3ac253559d36d898689202076e5e77334e67fcc0c",
    "signed-path-7b": "67c3f30b0c41e3881e5051c3ebf6369721fb12d7c53e35e61260fafa80debecb",
    "signed-path-7b:cert7b.jsonl": "b38812593bd845478f01ed636492be247b735b40b238cec39ad8df0b3e3fe75f",
    "check-cert-7b": "a4208ddf596ec01ed8b7abf5d2e0a022b6762e5743ad95d2a36e9f6db60b9b4e",
    "signed-path-7c": "052c0e768b5ecce0efeae5db6857abc50b52d88eb8941c4f8412ed9f68d65688",
    "signed-path-7c:cert7c.jsonl": "9e5440fd5ebe4b3220b4419267f182a01c74d9418dd141a330cfced33814c5cb",
    "check-cert-7c": "44eb1f97c4f6911b83e9d6d0f4b5cbb5818e7180f254930adc2604c9618112e7",
    # Recorded before sign_path_diagonals became a replay of signed_flip_diagonal.
    "sign-path-diagonals-3": "dfffdec8ef68bb96c8fd935b77036637995b2fad5fe30691b28031df6db6f48b",
    "sign-path-diagonals-unsignable": "5340586bc3acc0e23e91baaa23b69e9d11574d121430aad6d5ff44cdd2dbdc59",
    # Recorded before the signed-path search ran over integer states.
    "signed-path-8": "ee36c590a96a92c29947e63318bc8759d6985730bfb348cc28852b6c1c397117",
    "signed-path-8:cert8.jsonl": "c96503f5ee1edd572c92c9552c5adebc88964a758ae00ffefa1632c1aa44ae04",
    "check-cert-8": "4f123439013fd66dbf699cf4416f2ddf220926bbf59fe00bb4413c924bd3a290",
    # Recorded before one lazily built shape table served every flip traversal.
    "verify-switched-8": "6c8bb8c19ba860fd8855d8e548d327d1cadcd92d06e56618feef5d5379488d01",
    "verify-homogeneous-8": "c5b43a832f8caab0e80f974abcafd8f963d0a8f786e5345f7448a37a8d19b100",
    "graph-switched-7": "858d41067d320148a34dcee134985c700cee254b7ce0b959674b2f33e08fc5e7",
    # Recorded before the switched audit ran on shape indices with one integer union-find.
    "graph-cayley": "4973065f4f7258ea6469b5a69ae87cf03837e471b46ff457950eecc7bb07514f",
    "graph-switched-8": "a16eb8525aef4fd0eb8bee2978bf7f5ce632eba734699763587a9e1d317526e0",
    # Recorded before every face was read off the face ends of one pass over the diagonals.
    "insert-trace": "bc153496ae77327b6f262bbbbc9ee61595450a11ca74846a4353616389579200",
    "verify-diagram-8": "8e06c35ef98ee40162cc7fed7a3da56acccc7a59e641f989c6a620d948bf6f27",
    # Recorded before each verification battery shared one flip table per size.
    "verify-7-seeded": "3508fd1ca2f75848d01b9d48eef770041e4e8982f9fc4cd92bea9053a6abca9e",
    "verify-ref1-8": "e4d752017165778394347040729db4e2ce1635a5ecb0e790408ad446c59a39df",
    # Recorded before every reading was read off the face tree instead of a ring of ears.
    "phi-10": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "phi-10:t10.json": "b46fcd78169fd66c0a908fbae3be73943e1d70f4f5c185c0dca89b59cac0c4da",
    "readings-10": "318402b72c3e410700301e1bc4322812c257256a42cb94d29f82ef9343056e52",
    "canonical-10": "f6d2e132e86d8afc0321b7b0961518c465253c998c41044b9b0838d3a5cb913c",
    "signed-path-9": "4344e78565c559803b8ff4700c9c6ec0c7bc2604d0790ea0f96721de35647eb4",
    "signed-path-9:cert9.jsonl": "cae0231dd048f8af6014c4eed32fbd243cbd014b408c0248141fb88b1b9ce071",
    "check-cert-9": "31e165c176a192b44842b5b1cf7a970226fb56930d1abf26a15a4b5254ab74e8",
    # Recorded before ShapeTable.row became the only flip row.
    "neighbors-plain-12": "f3fd86d867ae7b9d986fab6bc421e52236e32cae56bf910a010d6d9750fcb439",
    "neighbors-signed-12": "bc5f0330b710534ff4ed409d6615435481bfb00815a57fcde5ec72f26f3aa02c",
    "neighbors-homogeneous-12": "a03237e4935958ed90d004cac4c73442be8cf95afc724a13461f3b1404bcdbe7",
    "neighbors-switched-12": "2ff5dbc92d0ba6e6f98bdb2774d3e87da168d2c19c414356232977008fb57a70",
    "flip-signed-12": "d8110726b0d3d7ef3ba5ff2b24ca6a1c8ac249fba3c02deb38f268048a0d6918",
    # Recorded before the signed-path cap counted only the states at distance < d.
    "signed-path-refused": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "signed-path-refused:stderr": "14ccd0cf04f771d5d1db154e24791be0a49ada8759e391e93f630d8f4e567565",
    # Recorded after the signed-path cap counted only the states at distance < d;
    # before, the cap also counted part of the last layer and refused this command.
    "signed-path-at-cap": "f24ca1649f241545cb78e767216f9ab247ccd8e63199c7eec2a97271a2018b18",
    # Recorded before the sphere's face signs became a pair of sign tuples.
    "signed-path-0": "e4b504136aea5b37c68b8155ae640b3b809b41a331e54148b23ebef972ee14a3",
    "signed-path-0:z.jsonl": "e92664b807dfcdeeaf3bf36b8a874dd18074f2951e5950aa1c6fc832c07d8ae7",
    "check-cert-0": "1d4af83a5c8e88781d76628dd77f43ea769e7ae1f10b62a251c270b067ccdbad",
    # Recorded before the graph builders returned the printed graph.
    "graph-cayley-6": "a6c56101dd68a2b08c8553e6ec5d49e1ed548f62b6d3ac3065dddc10e839d1d8",
    # Recorded before every command returned its result for main to write.
    "bigphi": "a2d801461ba5af583acb3a50b75752890ea8c4a39970ca8d877e05a852996e3f",
    "std": "16541e934af56a38ea608d407d90701edaa332cd4c8c3f151c87bf67f30e4277",
    "dstd": "75a221771c44e9f5a6b2675f8b51b64ca5b11ec3712dd555cdce913d4619a957",
    "class": "38cfd8ba6f3d31867d3165f48992aa507bce51efaedcafa4f71fa91e28289a3c",
    "flip-plain": "d6987077339dc3878417dcb457898c47b9f3749909e3aac1345a26000d3e20c2",
    "render-json": "a0507e861bb16872cac1877b19b28c09ad86dd9131d2cf51470edf5b38d74f9e",
    "flip-signed-refused": "feb211b08add3c54be48e19943e79868d3a719030c91c6b1b7dd20513d2e9b56",
    "check-cert-swapped": "960212c66f4f273e50121979c32eb4bea6dd061cf57a70e103923ed9f7c3af80",
    # Recorded before the audits took the battery's table and run_suite left the library.
    "verify-homogeneous-6-seeded": "87a46a917b941894a86c16f7c9ad4a0c31cc7bd22b0916a8de2435c2b1441c62",
    # Recorded before the class closure tested each exchange with a bitmask.
    "verify-fibers-8": "a8e7f46902cc43cf27798d07fff147f119f1c97a6eeded49c2cb5d3d1d8a0183",
    "class-9": "689c25b2fc0f2205cb16dd33090b972dd00eb3b424e110fa6f1c7e995013cb5a",
    "class-9-refused": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "class-9-refused:stderr": "c72bfa3aa1b8085fb11d59d79f85abb557b50fd43aa9fb8646830e857200c687",
    # Recorded before a flip path was signed in one forward pass.
    "sign-path-diagonals-7": "b0b2910d813868a29cabef56f7c2bbc7b1ee22e4cba81afdc887b8fa6db363d9",
    "sign-path-diagonals-7-unsignable": "3725633e917ed3090052588de8498fd61f78db11e4257aa3bf615b15ba213ee7",
    # Recorded before sign_path_diagonals signed each step from the quad it holds.
    "sign-path-diagonals-9": "13b094cb1d4618d548dfb0a5d0478d67e737a71daa477d60cc9cb856a83abe81",
    # Recorded before the shape table kept chord codes only.
    "signed-path-9a": "9a3b7440657d070f2c7be140c5286cc2ba7db5af49e4d2c11b0498534260cf14",
    "signed-path-9a:cert9a.jsonl": "7853570ffbc64683e68a6e339ea6b4c65b453043545d0f48bb1bce230fda5a0a",
    "check-cert-9a": "3887d4ff687e5dddfc3a70cc10339027d59cbdf7e3f7e2d2d63d86d3459132bc",
    "signed-path-9b": "0d48b400c3423dbd90aa9b2faa0a0b7c52d0994c9380444afa7e491e01292e2e",
    "signed-path-9b:cert9b.jsonl": "6fddb00ed7fe0ad1dd18c5709d19b34c52ec06355a77c49b38fa8ef090cdff46",
    "check-cert-9b": "8a99275faae4d8bb071f6943f19811270997da779a8d184597f974bae45cff18",
    "neighbors-signed-10": "7530a731f0aee395cf593f39ec2072c4b4104404780d75223e41338a43457481",
    "neighbors-switched-10": "41461c8f21f879013fad56fbd1963522d5334a0edcbd5275f0d3f87d3f9021de",
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_inputs(tmp_path):
    for name, obj in (("north", NORTH), ("south", SOUTH), ("colored", COLORED), ("colored12", COLORED12),
                      ("colored10", COLORED10),
                      ("path", PATH), ("path3", PATH3), ("unsignable", UNSIGNABLE),
                      ("path7", PATH7), ("path7u", PATH7_UNSIGNABLE), ("path9", PATH9)):
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    (tmp_path / "swapped.jsonl").write_text("".join(json.dumps(line) + "\n" for line in SWAPPED))


def test_golden_cli_corpus(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    got = {}
    for label, argv, written in CORPUS:
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == (1 if label in REFUSED else 0), (label, err)
        got[label] = sha(out.encode())
        if err:
            got[f"{label}:stderr"] = sha(err.encode())
        for path in written:
            got[f"{label}:{path}"] = sha((tmp_path / path).read_bytes())
    assert got == GOLDEN


def test_output_file_holds_what_stdout_prints(capsys, tmp_path, monkeypatch):
    # stdout alone gets a closing newline when the result lacks one
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    for label, argv, _ in CORPUS:
        code = main(argv)
        out, err = capsys.readouterr()
        if "-o" in argv:
            continue
        target = tmp_path / f"{label}.out"
        assert main(argv + ["-o", str(target)]) == code, label
        assert capsys.readouterr() == ("", err), label
        if not out:  # refused before any result
            assert not target.exists(), label
            continue
        written = target.read_bytes()
        assert written + (b"" if written.endswith(b"\n") else b"\n") == out.encode(), label
