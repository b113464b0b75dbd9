"""Byte identity of the deterministic CLI commands.

Each entry maps an argument vector to the sha256 of its exit status,
stdout and stderr (and, with ``--out``, the file written), run
in-process through ``cli.main``.  ``{stats}`` and ``{mixed}`` stand for
two fixed ``stats`` inputs and ``{out}`` for a fresh output path.  A
change that alters one of these outputs on purpose edits its entry and
says why in CHANGES.md; no entry is dropped to make a change pass.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from mtshapes import cli
from mtshapes.coalescent import BetaMeasure, sample_topologies


def digest(code, *texts):
    h = hashlib.sha256(str(code).encode())
    for text in texts:
        h.update(b"\0" + text.encode())
    return h.hexdigest()


def observed(argv, paths):
    """The digest of one in-process run of ``argv``, with ``{name}``
    fields filled from ``paths``."""
    argv = [a.format(**paths) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    texts = [out.getvalue(), err.getvalue()]
    if "--out" in argv:
        with open(argv[argv.index("--out") + 1]) as fh:
            texts.append(fh.read())
    return digest(code, *texts)


# sha256 of the two stats inputs: 3,000 N = 20 Beta(1, 1) coalescent
# lines (seed 7), and the same with a JSON line, a padded line and a
# blank line spliced in, so that some blocks go through the per-line reader.
INPUT_DIGESTS = {
    "stats": "dae870f50e667c92ddddd039cc2a38c777e40d7b97a8d2a5f2d8ff17833ca236",
    "mixed": "cc8d94709e6d53b7d4076c47c295b250d67f68a058b6734b2f4f1b1a7c1cd48f",
}


def stats_inputs():
    rng = np.random.Generator(np.random.PCG64(7))
    lines = [s.to_text() for s in sample_topologies(20, BetaMeasure.from_alpha(1.0), 3000, rng)]
    mixed = list(lines)
    mixed[10] = '{"t": [0, 1], "l": [10, 10]}'
    mixed[1500] = "  " + mixed[1500] + " "
    mixed.insert(2000, "")
    return {
        "stats": "".join(line + "\n" for line in lines),
        "mixed": "".join(line + "\n" for line in mixed),
    }


GOLDEN = {
    ("hasse", "--n", "2"):
        "b0efbbc43054beee753cd10fab49ea0fe2fabdba420e72d0ba74fe2a0222dbf9",
    ("hasse", "--n", "3"):
        "f2d8a7e7d185c4142b0c66fd4b09482668637c38b63c450db48a5a445bce43be",
    ("hasse", "--n", "4"):
        "3306ce8199d9027502a31b761c815ca08ef8d2f126a42f7f5f629b511541abbd",
    ("hasse", "--n", "5"):
        "f7af0d01582f19bb1b9efdb76e9ae2dcb653c986810d6ab0cece4465db6a93cd",
    ("hasse", "--n", "6"):
        "5947720d5e94b80e936743bd1abfafd17744bc48ed44c9549cc61ddad2921dde",
    ("hasse", "--n", "7"):
        "ae09c663ab6761eea2fc9489d160f372a2ec5d198acba740f447461bad7fb835",
    ("hasse", "--n", "8"):
        "d38215de9c2e91ef2b31ce11e32eca42ec5ddaca25d5c4ac719f5b5c1ca42eb8",
    ("hasse", "--n", "9"):
        "0cb7d3e1a41de6ca3edd65f56cb66a0d27ce1690bed8ff3aa659def2ff1a9c0f",
    ("hasse", "--n", "9", "--out", "{out}"):
        "0a55d500b42e043efd3a42570068ce6968be29f91f05cd74fb9f630c8ee92528",
    ("hasse", "--n", "10"):
        "3b7d5564a8f0d7fd3dac30aa30608352890c8afb759b8549c6c81d34613964a2",
    ("hasse", "--n", "1"):
        "13ff64c3c29711b4e350b97a11490f3d3cfc31208c39c81924b950a3271d29a3",
    ("exact", "--n", "9", "--chain", "rw"):
        "3083ab4165f6964cc6b1294aaf1ab9f6c44a751dc3d27fb6538427b765ac8a10",
    ("exact", "--n", "3", "--chain", "rw"):
        "53a551a7eb77c6dea9ce5c783524b25f0cffc0c6e4bfc3db06231d5bd42e4e8f",
    ("exact", "--n", "3", "--chain", "rw", "--json"):
        "8ccad2ebd064eab2f53c30b796993de35ea335275cb4cc4f1f9d92524b28c331",
    ("exact", "--n", "3", "--chain", "rw", "--lazy"):
        "29526ebb0c1129c3c3bc95215b30b37673c104b16e4211a63a96d7388ee00222",
    ("exact", "--n", "3", "--chain", "rw", "--lazy", "--json"):
        "dd5d10687bff5607af18997d9b603ad312ed3582b9b3746cd5e82a83befa10ef",
    ("exact", "--n", "3", "--chain", "sym"):
        "eb339caf6633d89b23c3c84512a86a9713c9d9ae82a748d13eed2422fd9eae83",
    ("exact", "--n", "3", "--chain", "sym", "--json"):
        "d7fc7abfd41de56cb44153675658960bcaa575652dea89b040da360c87bc0d68",
    ("exact", "--n", "3", "--chain", "sym", "--lazy"):
        "37cf0a5ad2fc9ddfdb3b58b23ed45a3fe3e6fe3ee07bb6b6dc37db27388800ff",
    ("exact", "--n", "3", "--chain", "sym", "--lazy", "--json"):
        "6f67668371b7cd57a028ba943a3dc5443bec8094e1954e1093d93299d445aaeb",
    ("exact", "--n", "4", "--chain", "rw"):
        "fcff465b262e00df3e6c8471b71ba19b26c2f5e899036f81d4dbea544b9132e4",
    ("exact", "--n", "4", "--chain", "rw", "--json"):
        "2b49f54a70dc8d2428452f29f321f246a65a30b45fffef83598d0c31055d7d5a",
    ("exact", "--n", "4", "--chain", "rw", "--lazy"):
        "c05095a447d8c98fbe4b3395d0c7e0e7764a7a5bed25d8db3971ee74da8cfc4e",
    ("exact", "--n", "4", "--chain", "rw", "--lazy", "--json"):
        "4ccfdb5e4793e11e39e316beb214cfbae83d97e21fd12d52ba816d73bcff2f4e",
    ("exact", "--n", "4", "--chain", "sym"):
        "a81bec4dde8d810993daa2080ff9ea3f983cbb8c8519bfac9c3e67b742bee081",
    ("exact", "--n", "4", "--chain", "sym", "--json"):
        "6a953ca0047f1e306f4d82093e20405f126c8167a3eebc4a91736d66155ca1c4",
    ("exact", "--n", "4", "--chain", "sym", "--lazy"):
        "6e7b213123410f8e391bb27724e91aef8040d5b49e76b1039363b9c5c9a67915",
    ("exact", "--n", "4", "--chain", "sym", "--lazy", "--json"):
        "e64a773afa588470f5bd2b1121b4fe9ae20938e941e7d0779373a1fbcdf16768",
    ("exact", "--n", "5", "--chain", "rw"):
        "b62324387430f18d52f2886be1d134f2eab76569c219d0292a74d086ef7e9cf4",
    ("exact", "--n", "5", "--chain", "rw", "--json"):
        "7f13f7f7234ccbb1c90ad4789dee6f794e65102c7973fbffcd464bd7b36d4af3",
    ("exact", "--n", "5", "--chain", "rw", "--lazy"):
        "bea3b2ab9293b3b2c5cc89df366404c6cdad987a5af3401756d425015b387ec4",
    ("exact", "--n", "5", "--chain", "rw", "--lazy", "--json"):
        "98b9ed939c1fad1072659198a9ee4689f47bc8e60183d67faea68d911c0f410d",
    ("exact", "--n", "5", "--chain", "sym"):
        "021cc85eaa875ec6f13fb92707959b5d82da2d77a817edd0d59c13e27bcdf64b",
    ("exact", "--n", "5", "--chain", "sym", "--json"):
        "a979f08c2b622fce7973536b98cf7d6c496d6717d1afa95b3e38d78f86512ce1",
    ("exact", "--n", "5", "--chain", "sym", "--lazy"):
        "5b5b3a20b59ffc9ad701bbec9bf428f9745039a26aec7de5089846e895aaa09c",
    ("exact", "--n", "5", "--chain", "sym", "--lazy", "--json"):
        "29ddd793df9c1a5118dd2b67b69097b0aaa426fbca331e08fc352bcd847b94f1",
    ("exact", "--n", "6", "--chain", "rw"):
        "3f669b51cb0ac37fa6593483eba83b866f9ca464557e04361e2af459aadab358",
    ("exact", "--n", "6", "--chain", "rw", "--json"):
        "c38d11cc185aa6dce5d3d9489badda9c727b2056f9b90838a6c9f56e70dd0b1b",
    ("exact", "--n", "6", "--chain", "rw", "--lazy"):
        "cd97accd4bf7c6460018e07f65e5f7814a84954d32fc9c15e1b8732be56292f7",
    ("exact", "--n", "6", "--chain", "rw", "--lazy", "--json"):
        "a0355e9fea936ecef47f65d1888faa1089aa018e582701b333811969404fe66f",
    ("exact", "--n", "6", "--chain", "sym"):
        "1c0f324eac36d119618632aa3bc40a83359260c9d2525eb2ea293cd8957dfc56",
    ("exact", "--n", "6", "--chain", "sym", "--json"):
        "fe0622c1a161a50e670e7e7fe700b4157a820d211a2a2828e69b7bc58085daa0",
    ("exact", "--n", "6", "--chain", "sym", "--lazy"):
        "aa6134b68a6a796dafe1ca45ef94174783442ec2a36f3253a5f73731fe854d37",
    ("exact", "--n", "6", "--chain", "sym", "--lazy", "--json"):
        "7b4ac41500d657c4e138e764c90a77b3d0e7f296a2097fa5e7ba49a94bd01c11",
    ("exact", "--n", "7", "--chain", "rw"):
        "b1b15889c752857bd48b115bb4cd9e5079c4e8f1e1691a59e16a910cdea45203",
    ("exact", "--n", "7", "--chain", "rw", "--json"):
        "093709d7dc9fc3b4a27a30f8fe7e2e7299e26acd4489efdd6375341742e9f4eb",
    ("exact", "--n", "7", "--chain", "rw", "--lazy"):
        "607bce177e8bf7168b86fda30885f522127db12ced80b5d9a1c8076c1b94c49b",
    ("exact", "--n", "7", "--chain", "rw", "--lazy", "--json"):
        "41b779bac8e7ce87c8aeb03fc146e9e7ead4ca5893002811c26d351b367bcf7b",
    ("exact", "--n", "7", "--chain", "sym"):
        "bbabe24131d6da12963f8ea44a67bf2e53f766a59b87543e4aae3c22d4598619",
    ("exact", "--n", "7", "--chain", "sym", "--json"):
        "fbc370b3e332f64f12aae0fb17df83359591450f1198a97f3589c486a5057459",
    ("exact", "--n", "7", "--chain", "sym", "--lazy"):
        "f8c0213ceca473bac42f0d251d35504ba69f2fc2e12a736fb1be1e34caa1f316",
    ("exact", "--n", "7", "--chain", "sym", "--lazy", "--json"):
        "d5c8b3fd678441ac264a4d1f974c711b1d773d0b471281831a67b9237a19dd59",
    ("exact", "--n", "8", "--chain", "rw"):
        "9313dcbd08c030395f9aa06d4e0a3011cf568f6a77ea261498a253b55e8c16c5",
    ("exact", "--n", "8", "--chain", "rw", "--json"):
        "a650fc71a86788f5cc7e883887c24c57f1bb5176457ba3008ccc9d831ce433a0",
    ("exact", "--n", "8", "--chain", "rw", "--lazy"):
        "a091d40c466cb6b33c16c189bfe334f67af1659df10b5cb570277687185945b0",
    ("exact", "--n", "8", "--chain", "rw", "--lazy", "--json"):
        "8a4d83755e458e65d779ca02f9bf63e3b26249a1098ed4f7bac57fee11d65578",
    ("exact", "--n", "8", "--chain", "sym"):
        "ab48b23314e8b7c6d3b2d64f50e1b3433c3943a7cfc63e41fc11fd030bec6429",
    ("exact", "--n", "8", "--chain", "sym", "--json"):
        "f61a15c3c9b5713a391878cad7d0cd5d03a9c59087fc072f38f140c422a9540a",
    ("exact", "--n", "8", "--chain", "sym", "--lazy"):
        "0ae9fe055774dd12e5aacd03db22c020b3d954684f86327f0978fb05662b7242",
    ("exact", "--n", "8", "--chain", "sym", "--lazy", "--json"):
        "6e29621551784e01b92b73fe5b08316795a77ce68d042a98639ea4399a9e18b6",
    ("bounds", "--n", "4", "--exact"):
        "49565b6b1012008aa5726947a17adf39b7161ab720297af2de4bbf6264c2ae45",
    ("bounds", "--n", "4", "--exact", "--json"):
        "d838dcacfae927ea0bc8cbb23d87e11fc4513e9a3525afb90a82cddba81ed2c0",
    ("bounds", "--n", "5", "--exact"):
        "cfe8ed6ddc0c712bcb03373915374afceb86ce5fc4bf2b480dde286d4177f9f2",
    ("bounds", "--n", "5", "--exact", "--json"):
        "1302347158e5de4020819a8032c35131428cc4625053cd9238fc5f9e9f07fb6e",
    ("bounds", "--n", "6", "--exact"):
        "9508c80b139a03c23b0802c16bf790c66ba6a467a8b4caa97afdba9b0f216300",
    ("bounds", "--n", "6", "--exact", "--json"):
        "4255a21477323ebe7f5eb16d821c2843dac0da7f9e97d0c2b6370e01a215abd6",
    ("bounds", "--n", "7", "--exact"):
        "c18ef8556da5af177dfdeea38900c6fd268f6f73c51355a7c941c1d931d81959",
    ("bounds", "--n", "7", "--exact", "--json"):
        "538dc9470955674b734a9627beb39698a971ff8504729214068117b1d5be68a4",
    ("bounds", "--n", "8", "--exact"):
        "55481abde3ba9b3448dd31b0952947cfa40dfdfaac50869549cf500d8388cd6c",
    ("bounds", "--n", "8", "--exact", "--json"):
        "f3e4ddcf762bbeaa85c67d0940ab13c2d05cab4ff5083927ebe21a93abd2b186",
    ("enumerate", "--n", "60"):
        "f3a71d64e6435027d9a917053a148f447a439b9824bbcf7c9f2ec150f923bccd",
    ("enumerate", "--n", "30", "--json"):
        "d5db86d44898c7d4f7dcfa8bf6213fd1f0e71208a8d4f74d4fd49164227a4667",
    ("stats", "--in", "{stats}"):
        "77dea52493cb613787c2522fd175c480207e7489d1c7558811fc249e6dd353f4",
    ("stats", "--in", "{stats}", "--max-cherry", "5"):
        "3ecb093d6d70cdf0f26cb5ea3465683631f155d79f6514f064e77fe2dec12550",
    ("stats", "--in", "{stats}", "--json"):
        "bc60818556d6a289b081e6e4a02e1468f9f94b8a6ab40d637028bbc63acd04d3",
    ("stats", "--in", "{mixed}"):
        "5c8d30460469ecda3c7b2074de3adaa11673d81f5ba138b584b9f04cb9fce68a",
    ("stats", "--in", "{mixed}", "--max-cherry", "5"):
        "4f900884c212bb456876d8f01f64dde9817835124af5a76338e34ae03f6e284e",
    ("stats", "--in", "{mixed}", "--json"):
        "8c369c4f607c53671fd5e1659fe1a62adc7363360188b399d6c65d8a433ff76c",
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    out = {}
    for name, text in stats_inputs().items():
        out[name] = str(root / f"{name}.txt")
        with open(out[name], "w") as fh:
            fh.write(text)
    return out


def test_stats_inputs_are_fixed():
    texts = stats_inputs()
    assert {k: hashlib.sha256(v.encode()).hexdigest() for k, v in texts.items()} == INPUT_DIGESTS


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_output_is_pinned(argv, paths, tmp_path):
    assert observed(argv, {**paths, "out": str(tmp_path / "out.tsv")}) == GOLDEN[argv]
