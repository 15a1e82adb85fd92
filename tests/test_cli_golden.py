"""Golden CLI outputs: one SHA-256 per input over every command's exit code and stdout.

The digests were recorded from the bytes-code implementation that preceded
the integer class-id analysis, so any change in what a command prints or
returns shows up as a mismatch for the input it ran on. ``color --index k``
with k > 0 is left out on purpose: which coloring class index k names
depends on the order in which twin classes consume their digits. The
``all-trees{k}`` digests pin the free-tree enumeration (which trees, in
which order, with which labels); they were recorded from networkx's
``nonisomorphic_trees``, which the in-repo generator replaced.
"""

import contextlib
import hashlib
import io
import random
import sys

import pytest

from treesym.cli import main

NAMED = {
    "k1": "1\n",
    "k2": "2\n0 1\n",
    "p6": "6\n0 1\n1 2\n2 3\n3 4\n4 5\n",
    "k13": "4\n0 1\n0 2\n0 3\n",
    "asym7": "7\n0 1\n1 2\n2 3\n2 4\n4 5\n5 6\n",
    "twins9": "9\n0 1\n0 5\n1 2\n1 3\n3 4\n5 6\n6 7\n5 8\n",
    "spider10": "10\n0 1\n1 2\n2 3\n0 4\n4 5\n5 6\n0 7\n7 8\n8 9\n",
    "halves8": "8\n0 1\n0 2\n2 3\n0 4\n4 5\n4 6\n6 7\n",
}


def random_tree_text(rng: random.Random, n: int) -> str:
    """A random labeled tree: each vertex hangs off an earlier one, then ids are shuffled."""
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[v], perm[rng.randrange(v)]) for v in range(1, n)]
    rng.shuffle(edges)
    return "".join([f"{n}\n"] + [f"{u} {v}\n" for u, v in edges])


def random_graph_text(rng: random.Random, n: int, extra: int) -> str:
    """A random tree plus up to ``extra`` chords: a connected simple graph."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(extra):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return "".join([f"{n}\n"] + [f"{u} {v}\n" for u, v in sorted(edges)])


def tree_commands(rng: random.Random, n: int) -> list[list[str]]:
    w = str(rng.randrange(n))
    bits = "".join(rng.choice("01") for _ in range(n))
    cmds = [
        ["analyze", "-", "--json", "--all-roots"],
        ["analyze", "-", "--root", w],
        ["color", "-", "--index", "0"],
        ["color", "-", "--index", "0", "--root", w],
        ["color", "-", "--index", "0", "--dot"],
        ["verify", "-", "--coloring", bits],
        ["verify", "-", "--coloring", bits, "--pin", w],
    ]
    if n <= 10:
        cmds.append(["oracle", "-"])
    return cmds


def cases() -> dict[str, list[tuple[str, list[str]]]]:
    """Input label -> (stdin, argv) for every command run on that input."""
    rng = random.Random(20240611)
    out: dict[str, list[tuple[str, list[str]]]] = {}
    trees = dict(NAMED)
    for i in range(40):
        trees[f"random{i}"] = random_tree_text(rng, rng.randint(2, 40))
    for label, text in trees.items():
        n = int(text.split()[0])
        out[label] = [(text, argv) for argv in tree_commands(rng, n)]
    for i in range(10):
        n = rng.randint(3, 10)
        text = random_graph_text(rng, n, rng.randint(0, 3))
        out[f"graph{i}"] = [(text, ["treelike", "-", "--root", str(rng.randrange(n))])]
    for k in range(1, 9):
        out[f"corpus{k}"] = [("", ["corpus", "--all-trees", str(k), "--check", "--json"])]
    out["corpus-prufer"] = [("", ["corpus", "--random-prufer", "30", "--count", "20", "--seed", "7", "--check", "--json"])]
    for k in range(1, 13):
        out[f"all-trees{k}"] = [("", ["corpus", "--all-trees", str(k)])]
    return out


def digest(commands: list[tuple[str, list[str]]]) -> str:
    h = hashlib.sha256()
    for stdin, argv in commands:
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin)
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        finally:
            sys.stdin = saved
        h.update(f"{' '.join(argv)}\n{code}\n".encode())
        h.update(hashlib.sha256(stdout.getvalue().encode()).digest())
    return h.hexdigest()


GOLDEN = {
    "all-trees1": "0eb5f68e8620720c3976716d8e19bac419f09f8829750e99b71029ed7bc515cd",
    "all-trees2": "e07638a0033f0352f0722ac90f1b49ba0927bd8e02da557ba9df09a457c56ab8",
    "all-trees3": "5bf62cc36401a611e8e73827d216ab4a70f51e38afb36ce7ed11412043743e3c",
    "all-trees4": "3c22f3d1cc3166e5e5619b2d6eea6ce156618ab68d4be1b8ad1d6b813f98e4f9",
    "all-trees5": "1feb9eec32efc51000576a6fd79a084990725830acd0c5a0c18009d407495207",
    "all-trees6": "09a5faad9ae95b5b3cd248342ae44bb599f81d9e91a39c32a5af67e83165b819",
    "all-trees7": "8771481ea4e69404b8a737e0f0cb4e178513d49cf8e45bf6157cb94455e00f2c",
    "all-trees8": "94e73c6577d73e428708078d30bb952f7feadcd9adce3c9b46b78fe73d915565",
    "all-trees9": "9ef209de3a29af51a05a1f9510c4f4bd79fc22524b4262dab81ae8a769b3fed1",
    "all-trees10": "249d8926b3c5c60ef84d88c50a9a4f8b7b43a34b4173ebfa98ec3baa56d61642",
    "all-trees11": "67e9c68f073ed76b921cd07b69358e6b82114f452239ee9824cddbf3995119c2",
    "all-trees12": "9ac46e736e48c244dd56e872a79a9408d57fbd6cc318c5b74734553bb252af82",
    "asym7": "1c76ef7c796907860e1d360f675e3103702c96c63790fc2f11176b74a669f105",
    "corpus-prufer": "8677f8080a5dcf26f00aec860f4166f18310d2803078b3ff770c71745c69aeaf",
    "corpus1": "0d4e24823edc1dcc09a9d7a179eefbb21ff1db874c6448c85ff7a7c36405f96e",
    "corpus2": "b71a2d87da29c08e5d155c558903b971cf1729e3e83b5302b6d19be8010260f2",
    "corpus3": "425cb70508f66cfcc64f82d09dab94237f6468c554bb887fa4f5b48f6f133e4c",
    "corpus4": "b184b7e419e1bebe269d29da809067f3c7e31dfe165b7703e850523c55feba93",
    "corpus5": "45c81bf7dc4fd9af8ba5f6891bc9d5f37a7e78b5e4b2b2466587f02d72b3078f",
    "corpus6": "46ff40d138600f9ed6bd85575255a30e72d5d3cc6c21fbb861277885f23ff4b3",
    "corpus7": "356a381e96b859437fff6eae3ddafdd23cfa3d80be3fbd7da3fcc2a77751b6f3",
    "corpus8": "f0b9ff6b333fb04ce18feb2931039a42d8436f33c0496665c16b9f2bdd13a0b1",
    "graph0": "c1ef1f029a084c8cc539c5b52c27288933f8093f89e74098d4059345a29f1cfa",
    "graph1": "033c3cff91a5a27a1a5803ca56c1ec394f41a6e576409799aa3aea1889f6bb85",
    "graph2": "7faed09a273a86013530a8390d9d1dfb851e3c117c68fcc21508f1a0a26c03f4",
    "graph3": "056efa2de1c30bcff965ad6d6f2516e1ab8504366e974fd395c1f5db6cfea093",
    "graph4": "fdf2645e3d876b9c11e71fffa68fb1f303d015e13e88cc388a14332308a2f470",
    "graph5": "a1f9ce5c552b2a495e4b947370256d54632d957c53b0f6b67674bb811c7e7d4c",
    "graph6": "fe74d658a149b84c603f8acb9c09d5c2fc0f225bbac029a88265858456285351",
    "graph7": "da338b650b6ee3999b5e8ba124ca73f7c2231aa5e44a80c067594bdc0c1a0e1e",
    "graph8": "efbdb7ca834584ba0e2fa32a4f30a7f650f6289376d3ce5695f5fb4b2028607b",
    "graph9": "052b5032e4453bccf8739bd5b693b52291a896d6cd6a4bfa56f438ed411eebc8",
    "halves8": "e1f6d89eacea7e8865b8c22129b50aa6f096a0fe4a4e9fb05c7dad57f0e16e5c",
    "k1": "9b244409a9cb033e77d0954ae33ebd578adcd1e2d6c5b1ed9c3a7165dad54dbd",
    "k13": "51674f4c23cef79d2aa5e5ff9e8f5474ef58ea2a6a5399358c43c896a2e6d057",
    "k2": "931c4296426612768e8c131b438fa65181c583cce1fa403ba72a8293c162382e",
    "p6": "94f103cc103c1886eaf4c3527fb529b39b825e88e46a37e0ccbc5caddc0ee2d8",
    "random0": "05be29369897feedb555798adcfd19fdc2e3921a5a9b56ca664737bf566fcb5d",
    "random1": "a100e2aae6780c4fc759471ba5a88eae2dfb1032d34e9ebbf780e7fdcbd6d8e1",
    "random10": "60acfcb7a027d9538ad74d5754c354b27cfc4be1592db42b0f3a5937755b49b1",
    "random11": "3f4e4bb12f8e33b300fbfc0b1874c046415870f5e42be28c3c1d250106c9b4ca",
    "random12": "f367b3e7c80f3169036c7c1b22c67ac947ede9251adcfcdcd71e229f9df42ecf",
    "random13": "31c224491463080f69cc93b98ff1b9231614adf8a37563ae10e1d2a890d54528",
    "random14": "594224bd2158a5a917bf0590eb50e8fbac76fd83e7d08567806a8d0718db3b3d",
    "random15": "47b56bd6d5c23933389dd0783885d4fb63827a8cd67ba46167e01439a2b733d8",
    "random16": "efd4d86fe3a3a7c05965076be8dec1f325421220e2a02aa7e3bbfcebc75f2652",
    "random17": "c19caedac9777546c7a23d169686be0e7993ffe99d31f3c15fbfb9544f138125",
    "random18": "1793c5db508aeffe03e9ab0943a119694860f341c7879025a823f74837f11fe2",
    "random19": "0d9383924ccd33a7a644f07d048e5aaa8e2f58f34e5bbbab414dc8b0dd60a646",
    "random2": "85eb60d23ad61d95d0ebe5deb8509ba7155e47b40b0e8e006fb5ed1db35b619d",
    "random20": "bb42fc112e1bc3b98b6c536362515c29bce430fb0410229a712e7b979cb1dc13",
    "random21": "779b2ac0cc88c56453f9612e6d39f3fb5d305f459d8fa4b5d8195f728d65f63c",
    "random22": "6527d6e96cb6e3244e567b64f280a28611954ba0d3cabdeda891ec8698cdb0cb",
    "random23": "497920e45d29ee69e11f08ea894e2a50bb837ee278a7079866d322ea97715747",
    "random24": "762993b6c01c12cba1ef9e0fb675ab7da9892b6e1e653aba89680322e386a9f0",
    "random25": "d033618cb3c5c034c1ce73a49569be7b28615143d70a2c656cccde89d69de4f9",
    "random26": "e1643000aadbe3bb3397cf365db141126e9e69f6d7154c6b38f5decea40dac3c",
    "random27": "24d97cc3fbc6b7e0bbcf5bbded3514d5dfd8a81529fc4ae380e935e5e7b19829",
    "random28": "b6487d6ae9ea9de9fd16f0d0831806a3ff6fb8899b2cf0eeb937f6778ba02f96",
    "random29": "274768228018e4450647e25e6d1fdf5c76c39cd86cc81333531f42cad99cb723",
    "random3": "ff6659ca5b3ecce4b71d71a613f9f5e58f24e25acbd57bd45d1f65b9a5814379",
    "random30": "f2c4d4ccac44e49191f665615c7f196658485ece57ce4998f194a4555e3e8cb9",
    "random31": "bf8295bf743c42cd28c3360f048b91904d2e8bb4ab6f94a2fec620939b88cb6d",
    "random32": "c6d402e4c18ea185be704de321c98550d9a44ac9f65c43ef7e264b3ed2729fd5",
    "random33": "1ccf9253004e2bfb184e46c661101082753ea9dc995c0fcd3351194e2037252f",
    "random34": "fb86669406846f7efcd7f72f585737c276a6f4d1d1e5ac18a537c93c1f5fa497",
    "random35": "ca302f4d755ae2b168de8149e83e9fd15770c29677a5e7c91fa4d33587ceca73",
    "random36": "5eaf78004c531ba10b12922fe1fbd1ba14463c88438c22e20e04d822d57cb6b3",
    "random37": "3e9e93b57378b64bcb4f43822a3145c5b3dd34acb03beeb81fe22ce5a720f213",
    "random38": "f2120bfb8fd99e3377f459827f996fa9f2b7462d02cbdfe79b09e65e53fd1a8d",
    "random39": "278516cfedc8e016fe704acda8da73e0235f5cd0477103d864308994bb8212ed",
    "random4": "4c60a9dd4d6fd5b7323463b09b04d9e8861ff0e2c6d7f10609280af755066105",
    "random5": "2293ebf32ae8801f39a634b726f62dba7a6a3c5a34016c21f23b5c3353cb3c70",
    "random6": "ff98cf5f779a90696db91b639159815b37849bdb2d3fd69404f348691303079f",
    "random7": "f492baac6e1636d2359fcfc8795cd4f40c6ad1e1bf55366583cb0bd5455986f8",
    "random8": "42487f7deeee8496c3f695211bfb152f0ccd59b48cba98e8c3544ab8889158be",
    "random9": "ca6baa99535986d884b0bfef892ebc2e3a57aa11c7d2443e8ab54e1fc177d1dd",
    "spider10": "57d0343d376d34dbba4f4f70f305e6e25e6818696ba8dee35aa97044f692dc55",
    "twins9": "1ae4b70da22a542b7fbdd8221722504b0085b75a7aac741f26eabc20d7439016",
}


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(cases())


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_cli_output_matches_golden(label):
    assert digest(cases()[label]) == GOLDEN[label]
