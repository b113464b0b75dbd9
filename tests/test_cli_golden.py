"""Byte identity of the deterministic CLI commands.

Each entry maps an argument vector to the sha256 of its exit status,
stdout and stderr (and, with ``--out``, the file written), run
in-process through ``cli.main``.  ``{stats}``, ``{mixed}``, ``{jsonl}``,
``{empty}`` and ``{late}`` stand for fixed ``stats`` inputs and ``{out}``
for a fresh output path.  Shape literals are passed as ``--tree=...``
so that one starting with ``-`` is read as a value.  A
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
    """The digest of one in-process run of ``argv``, with each argument
    that is a ``{name}`` field replaced by ``paths[name]`` (JSON shape
    literals keep their braces)."""
    argv = [paths.get(a[1:-1], a) if a[:1] == "{" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    texts = [out.getvalue(), err.getvalue()]
    if "--out" in argv:
        with open(argv[argv.index("--out") + 1]) as fh:
            texts.append(fh.read())
    return digest(code, *texts)


# sha256 of the stats inputs: 3,000 N = 20 Beta(1, 1) coalescent lines
# (seed 7); the same with a JSON line, a padded line and a blank line
# spliced in, so that some blocks go through the per-line reader; the
# first 200 of them in JSON form only; an empty file; and the 3,000 lines
# with line 2,501, in the third 32 KiB block, breaking rule S1.
INPUT_DIGESTS = {
    "stats": "dae870f50e667c92ddddd039cc2a38c777e40d7b97a8d2a5f2d8ff17833ca236",
    "mixed": "cc8d94709e6d53b7d4076c47c295b250d67f68a058b6734b2f4f1b1a7c1cd48f",
    "jsonl": "4e9084fe539c2529720079e1a7cd270304a61eba8631e267aefae3a5744d2144",
    "empty": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "late": "d678d0e7a19c710cf9b114d1ec936e461b9d803ada89e43130a7869557d27bfb",
}


def stats_inputs():
    rng = np.random.Generator(np.random.PCG64(7))
    shapes = sample_topologies(20, BetaMeasure.from_alpha(1.0), 3000, rng)
    lines = [s.to_text() for s in shapes]
    mixed = list(lines)
    mixed[10] = '{"t": [0, 1], "l": [10, 10]}'
    mixed[1500] = "  " + mixed[1500] + " "
    mixed.insert(2000, "")
    late = list(lines)
    late[2500] = "0,2|10,10"
    return {
        name: "".join(line + "\n" for line in text)
        for name, text in {
            "stats": lines,
            "mixed": mixed,
            "jsonl": [s.to_json() for s in shapes[:200]],
            "empty": [],
            "late": late,
        }.items()
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
        "38397de7f16580af2dab10d3ba3c2d410c6037dab508444a07af386034a321a4",
    ("exact", "--n", "4", "--chain", "rw", "--json"):
        "b32a91a78daf3bacfad69e52093c453cf94b18c32c4ddbea419aabd78a9716f7",
    ("exact", "--n", "4", "--chain", "rw", "--lazy"):
        "f9f3f7ef8e2c39e96d7e839abf43afb9d91c7ffde42231cfddab3763e05b2cab",
    ("exact", "--n", "4", "--chain", "rw", "--lazy", "--json"):
        "b80c50a023f6d332e0e7085c7ce23e4cf5a374a10723eb91cc92716f99525b65",
    ("exact", "--n", "4", "--chain", "sym"):
        "3b0e750ec4e4a740b5ffb7382a596d7f2cce65f5ee9ca2a05beb8159d5090fcf",
    ("exact", "--n", "4", "--chain", "sym", "--json"):
        "b61b216217bcc389bc0e38d8f2fcfe6be90571181cad7c32f4b39fd2d6f2653e",
    ("exact", "--n", "4", "--chain", "sym", "--lazy"):
        "3f60585f5b95ea35e13f9cc53cab6028cb38cc61f6fe8e5926451e65c80dc22b",
    ("exact", "--n", "4", "--chain", "sym", "--lazy", "--json"):
        "772225265ef192bb01fd8a37c90752432d95d311df37213d23708aff08d1d942",
    ("exact", "--n", "5", "--chain", "rw"):
        "ebca7d0592e06beab422b88d8e9666b08ff211fa03b4e271e72f6c5a31f71637",
    ("exact", "--n", "5", "--chain", "rw", "--json"):
        "41412ddfb8b13e77e6e5091b0dbe31cea6c33eec6e4d5acc49dbb84f5bda2ced",
    ("exact", "--n", "5", "--chain", "rw", "--lazy"):
        "8c4ba7ac3cec12e15f8016374854bfc2e052de8bd30d2163569a6c816d90e176",
    ("exact", "--n", "5", "--chain", "rw", "--lazy", "--json"):
        "bb0062763139123a5375fb92a8d941ee5bb16bf9f9832932830b5ad6a22da2a9",
    ("exact", "--n", "5", "--chain", "sym"):
        "a7385fe6ba60efa47b32a31287d28b38db8b0c9a9af24329a77e4cc056b816bc",
    ("exact", "--n", "5", "--chain", "sym", "--json"):
        "cff3e7d80f5cfd91bd74a980869a7cc52ebb888868340f1b3da996acd9079ef9",
    ("exact", "--n", "5", "--chain", "sym", "--lazy"):
        "56380596fdca864a257cdc3e7d606a87763a6a8700616574bae908e0eb70be6c",
    ("exact", "--n", "5", "--chain", "sym", "--lazy", "--json"):
        "b0fdcaa89405610eefa187c20b7f61a65be3568d403272cfc53f5f1d2f70d61b",
    ("exact", "--n", "6", "--chain", "rw"):
        "3d721c16cc29d39d1b35ae1b41a84ff7812c92f97aec5a9a220bd407cf1e2774",
    ("exact", "--n", "6", "--chain", "rw", "--json"):
        "c05a1048111ce54ea35bd621e464b6f509ade484fe1b79b6d63b8dac79930066",
    ("exact", "--n", "6", "--chain", "rw", "--lazy"):
        "30ed9cd97e06fbc1340fc55d0b5e764eda8c51c403b978d212cfa7572b4f5439",
    ("exact", "--n", "6", "--chain", "rw", "--lazy", "--json"):
        "0fa8914443b1d72214dc8ed247ee6783e66815a6ba25aa02d646f4e57823e0f2",
    ("exact", "--n", "6", "--chain", "sym"):
        "96a6bc3853810b35d4922330f2a71d8802ccfc3587b0c2f4ae28ceab86e5974c",
    ("exact", "--n", "6", "--chain", "sym", "--json"):
        "d076c8861ce498737e7bf7f8d788f2854bc342490159d42ff592631b19b153ab",
    ("exact", "--n", "6", "--chain", "sym", "--lazy"):
        "7cfd274239632a26c4e22c340ee46bb003ed630b944cd96e3cd605e9648a3f56",
    ("exact", "--n", "6", "--chain", "sym", "--lazy", "--json"):
        "55c2af4931be32930eabc6873a65c945931386c465d5a8349a515caaab493d15",
    ("exact", "--n", "7", "--chain", "rw"):
        "1b9322529a41a6031273855559600691262b00d10916f09310dc792c996e6af9",
    ("exact", "--n", "7", "--chain", "rw", "--json"):
        "e6becef688364459485ad475074f82c881d6688b0ce71f2bc8ce16e510703802",
    ("exact", "--n", "7", "--chain", "rw", "--lazy"):
        "b1678c38425ceb2c56370faefa2fbffbee6577a35a781371f552a8f97899a242",
    ("exact", "--n", "7", "--chain", "rw", "--lazy", "--json"):
        "0c209cc2f30e274e58ad4b37cebc060abfc24ddf0181e7cf256e5b966b68c3a5",
    ("exact", "--n", "7", "--chain", "sym"):
        "c52f4c7df9a4f0ca85aec75e25a8700e9b04a5c6f2352004fb1f07637079ca29",
    ("exact", "--n", "7", "--chain", "sym", "--json"):
        "864eab29c82c5b948454d87dd59acec3791a6010d78f54cdfb7c68de0933cfe7",
    ("exact", "--n", "7", "--chain", "sym", "--lazy"):
        "c5bdfc90a087e1d7a97e14899ba238ee5bea4fecae482f870ead419de559b6e8",
    ("exact", "--n", "7", "--chain", "sym", "--lazy", "--json"):
        "92abc14a8bade242fd3aac3c8efb8f5e33863a59f295ac686c874a3c92bd944d",
    ("exact", "--n", "8", "--chain", "rw"):
        "05eabcbe1f873aeea7917cbc4c8240729306cdeb02ba33e50f4406305fbb37e0",
    ("exact", "--n", "8", "--chain", "rw", "--json"):
        "b102a020f0c420eba5763d1435bc5c0c19922800674183d1869d83dad9331133",
    ("exact", "--n", "8", "--chain", "rw", "--lazy"):
        "640575e00223c62c52361a04fb70ebbbb3f29508a779ee0a59516e43f6e4d2e1",
    ("exact", "--n", "8", "--chain", "rw", "--lazy", "--json"):
        "06eb5270b3174c76db1acbfac49f7c96bd5e3dcf4a84970ec4292fadfee94007",
    ("exact", "--n", "8", "--chain", "sym"):
        "91d87ca95c7533821c50d5fe95d8e301b770da1a2fed4f40136c0d5aa1c2c629",
    ("exact", "--n", "8", "--chain", "sym", "--json"):
        "3b7ffa53140ba61241d2d0a3cfa184b22c04fac95d73a5e7ce50eaf439f8c63f",
    ("exact", "--n", "8", "--chain", "sym", "--lazy"):
        "1cc07f3d95f3f8d96e3148bc4b7f17ce299041c8d05fe4986921408d99d93096",
    ("exact", "--n", "8", "--chain", "sym", "--lazy", "--json"):
        "0b0bc40e9ed03aa627a06c256fca5466df01cf094b49c56225c5e5214fbc54d8",
    ("bounds", "--n", "4", "--exact"):
        "e7aa8e86d5cea316abc572999dc0f0ad5ff91a8ed939098d19f30e600d4e6d1f",
    ("bounds", "--n", "4", "--exact", "--json"):
        "3cbcefbda8ec8c45d6b6440476179de32a931a40e3d5c71d49b4a328cddfb0c1",
    ("bounds", "--n", "5", "--exact"):
        "cb0b3c879b0c66f21cb7a0ab37b374b9abf83b677b6c3d2470c15d8ca0ec530d",
    ("bounds", "--n", "5", "--exact", "--json"):
        "4ca4392c2a905518bd710a1e6c46ee2a67b5a2ac503db055b417a3df496861af",
    ("bounds", "--n", "6", "--exact"):
        "56f2b435b3694fa580a5e885408aca103925ca2ce563e19eac4b0ffb39d2391f",
    ("bounds", "--n", "6", "--exact", "--json"):
        "141b13066d571adb8260e46080009235841e331379f40e1a698a0aa931d6e378",
    ("bounds", "--n", "7", "--exact"):
        "df0effb681e181931ff9542b27628365fdd2853ff018fcfdabfcb2241e4f616b",
    ("bounds", "--n", "7", "--exact", "--json"):
        "4a46e228343858425fe772114adeab56d9bbe3adad6a1f723dd26add1ef7104e",
    ("bounds", "--n", "8", "--exact"):
        "e191a14864ef9a23fdea6cbc483f23cd323590eb55ce7c2721ed0e712e48b427",
    ("bounds", "--n", "8", "--exact", "--json"):
        "acaae71ad032b2971a36df7d854712a2122703d379cade14e9c3867f7a0a1a43",
    # N = 9 is past the kernel cap: exit 1 and the cap's message, no record.
    ("bounds", "--n", "9", "--exact"):
        "3083ab4165f6964cc6b1294aaf1ab9f6c44a751dc3d27fb6538427b765ac8a10",
    ("bounds", "--n", "9", "--exact", "--json"):
        "3083ab4165f6964cc6b1294aaf1ab9f6c44a751dc3d27fb6538427b765ac8a10",
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
    # Shape literals: valid and rule-breaking shapes in text and JSON form,
    # and malformed text that the token scanner refuses or reads leniently.
    ("validate", "--tree=0|2"):
        "7b31770caa9027b1c29496d4f18edc426384aa053f1d5b6b91d8e511361d3c21",
    ("convert", "--tree=0|2", "--to", "text"):
        "777e911ed39f366fe3dee90acb6836463699ae9f314f47abe8774bc25cb195ee",
    ("convert", "--tree=0|2", "--to", "json"):
        "ac08606ab433a5bc26807724cf00d663fd7a1608502b273526e58a8ad173d2e2",
    ("convert", "--tree=0|2", "--to", "fmatrix"):
        "7576410f3b85c88eb70620628abb7b0d187a6f57a13cec414efcf7aa52c859ba",
    ("convert", "--tree=0|2", "--to", "fmatrix-json"):
        "fa7f61993e19e0f2dfc6c5081c6507598364b42a54d617b26f4dd1ad70b0f4ef",
    ("degree", "--tree=0|2"):
        "1264c8df73ebcb9a5ed23c642dd7ce061c49e0d161dd8442c0b4fa1cf4d07a39",
    ("degree", "--tree=0|2", "--json"):
        "cb048b39147f203877312929cea8b351145e747167ad3ed27df4ffa8fa048483",
    ("validate", "--tree=0|4"):
        "5cda91d5c92776737d5cdda80905bbca633ea3ed471e9eda5401db9b892d8266",
    ("convert", "--tree=0|4", "--to", "text"):
        "9f99deac1ec177befbc0e5e9dcea4695d38780f4c0513db323929e7bc0d4852f",
    ("convert", "--tree=0|4", "--to", "json"):
        "4e66c6a79e0eb91b4eb3acefca8a788080388210456da3ca7dcf26b8a7257547",
    ("convert", "--tree=0|4", "--to", "fmatrix"):
        "f38c2765cfa197dbbb6b9b1a584a186b8255b0a1db17fc0b9ddc675922fe747d",
    ("convert", "--tree=0|4", "--to", "fmatrix-json"):
        "9cfcdf518321151feca9a3c854259b24e06a47601cf2e0f2d9ec7b5255a9fca5",
    ("degree", "--tree=0|4"):
        "c9cd89d62a31b456cfe76ef119583826985c79c4fff433b9176a71210d7db219",
    ("degree", "--tree=0|4", "--json"):
        "3cc108752baef56431f430b7b1fc085feaedae4cc06da8f1a60c663de372a8d5",
    ("validate", "--tree=0,1|2,2"):
        "4159986b27281a63b3eb059a9e2a6d54523200248158739e376db84f7b48b583",
    ("convert", "--tree=0,1|2,2", "--to", "text"):
        "771f54197cc2efa4080029c469872f86efe3a99aec3296e024ecdf0d4485f9ea",
    ("convert", "--tree=0,1|2,2", "--to", "json"):
        "5c92c5e22312656b64cbb458f9c66a4c4e2e44ee3f8951bd1852dbdca6484953",
    ("convert", "--tree=0,1|2,2", "--to", "fmatrix"):
        "211366f6052d768256c008c477b5043d2519b3c356dc86d0441b95768e378afc",
    ("convert", "--tree=0,1|2,2", "--to", "fmatrix-json"):
        "ab3280df37e9d6555d24dfe05f21430c4f7893435c9de207f8de17a498e990d4",
    ("degree", "--tree=0,1|2,2"):
        "b74757f05e94103326cb35b3dbaaf3872d89ea1104b6ee738715c6d50b302e85",
    ("degree", "--tree=0,1|2,2", "--json"):
        "6f433049d967f1624a14f01d12c53c6d340f67f29517240d2a01f7d4a76dc168",
    ("validate", "--tree=0,1|1,2"):
        "4567be4eb34cbe0881c56337ab75e8c00965b710de69da51bcd8f2c1c2c15683",
    ("convert", "--tree=0,1|1,2", "--to", "text"):
        "5a837e357d8b3ac4becbdf386ccbd71c43bd85a3d3d5aed8f1e4b9e85399080e",
    ("convert", "--tree=0,1|1,2", "--to", "json"):
        "93f8cbf30ae7aade478f49c0562590c9cb239f8d9617d5ee2a9bff2129c3a67e",
    ("convert", "--tree=0,1|1,2", "--to", "fmatrix"):
        "13e33b5abe388d1b10d26414b241d41041f9ff93d7cbbf455fc559d79d54b929",
    ("convert", "--tree=0,1|1,2", "--to", "fmatrix-json"):
        "b14f1f05e0b34fb2322ce1c9095b49ba9a67476cb2d62adb9b5ffed9cb364725",
    ("degree", "--tree=0,1|1,2"):
        "3a9c13111a9b1af02474e3bf01b244515d9f0770f43b3c1c3996f6f335828dc8",
    ("degree", "--tree=0,1|1,2", "--json"):
        "faa935228fa6d8eadb70475688fee9224cda3b579090a516b4591c60f635f248",
    ("validate", "--tree=0,1,2|1,1,2"):
        "eaea36d1ffc765271cdf9e54777d61cd7c3ac08121e55b5c38eba505e3bdf366",
    ("convert", "--tree=0,1,2|1,1,2", "--to", "text"):
        "6afb86618ea9db93c3b828245111f60739417857fe2f914096d9d6c188b37252",
    ("convert", "--tree=0,1,2|1,1,2", "--to", "json"):
        "e262c76bde28416e6784bccfadd856b7eee88e8a10c51222918458dcb05330e5",
    ("convert", "--tree=0,1,2|1,1,2", "--to", "fmatrix"):
        "b2cb3f457b2accee315266bc7be8a828275c3946cc50b7333465d679a8c33544",
    ("convert", "--tree=0,1,2|1,1,2", "--to", "fmatrix-json"):
        "18e9fb7d772f05ebd7c591ece4809a9d94674f61bcfe8abb32316c28dd4b1baf",
    ("degree", "--tree=0,1,2|1,1,2"):
        "9881193e0e5f19a4de2af04d4e9d6065ae88d9d3403ec1e2ebbfa594cb31aaef",
    ("degree", "--tree=0,1,2|1,1,2", "--json"):
        "c6a961c8b27139eb12ec6e9de9e302e28a83f844defb09c29c0411bf55756d73",
    ("validate", "--tree=0,1,1|1,2,2"):
        "190ae8ce17b2e1231ef58a36943644f9178bcc10a7144967998bc6dec62d469c",
    ("convert", "--tree=0,1,1|1,2,2", "--to", "text"):
        "cb2000c1766c079e46d6425a9a16a0aecdc141e6bbfad50b415044184f163f4e",
    ("convert", "--tree=0,1,1|1,2,2", "--to", "json"):
        "34496ab4674d38740b1530aa3af97b1e6f364c94a494d0ba45e88a27e4f8609c",
    ("convert", "--tree=0,1,1|1,2,2", "--to", "fmatrix"):
        "25dd1a8f4756f92adeb4456a42235d18d7e1787b4aad8f2b5351827dbec2092b",
    ("convert", "--tree=0,1,1|1,2,2", "--to", "fmatrix-json"):
        "feaac779881d062085497a23572e5c577a34ac035f10363a6ef6c10eac8f1bf7",
    ("degree", "--tree=0,1,1|1,2,2"):
        "3b463ee99c07cbf57d1ffd69d6cd49ab38c774b555ab51b274d700996c2f7446",
    ("degree", "--tree=0,1,1|1,2,2", "--json"):
        "b31cb18e26842472f96f98e4ecd8aab0cd789a48213fed998408771c20b3807a",
    ("validate", "--tree=0,1,2,3|1,1,1,2"):
        "bd4dceb08d38e89a09a9471d304d3fdd8ce203ba373f57c796430b32a7dab30a",
    ("convert", "--tree=0,1,2,3|1,1,1,2", "--to", "text"):
        "b4631f5e4366981a6218987c9d2d0eb3c5ea3124e0c3d3a1f28ab168dc1ae807",
    ("convert", "--tree=0,1,2,3|1,1,1,2", "--to", "json"):
        "c3054b170f5e9357198a64a9d15af0e0dfe6bc531f59b7675e2400d96c34736d",
    ("convert", "--tree=0,1,2,3|1,1,1,2", "--to", "fmatrix"):
        "90cd89e43165d7083264757df0049043e55f0af64a549d8ee89fcb2304919cef",
    ("convert", "--tree=0,1,2,3|1,1,1,2", "--to", "fmatrix-json"):
        "487b90449b7b8f4393f98a59e85396d268b723c62c8449e01d771d35546e5126",
    ("degree", "--tree=0,1,2,3|1,1,1,2"):
        "4701ba4cac3bcc2b5ccbc4c173919874123fbd81c01ee194999c64254b56d712",
    ("degree", "--tree=0,1,2,3|1,1,1,2", "--json"):
        "3db823b7aaeb296b7c8aa5ef1e305cb8abaf894eb8d7b72762fe2c6fb58a1f24",
    ("validate", "--tree=0,1,1,1,2,2,2|0,4,4,2,3,5,2"):
        "716f2b12e6353a685a50a48cede5b4fcf6dffd646cbf4483a99674e62db1d3b3",
    ("convert", "--tree=0,1,1,1,2,2,2|0,4,4,2,3,5,2", "--to", "text"):
        "6d63400bd3253c579f0f283de23bfc4ef6c0a3818cafb798169afdac69dd1469",
    ("convert", "--tree=0,1,1,1,2,2,2|0,4,4,2,3,5,2", "--to", "json"):
        "81b1ed27bcd236287ba27693d3b828ad366030264d3ba12f9d3d5f834fe4471d",
    ("convert", "--tree=0,1,1,1,2,2,2|0,4,4,2,3,5,2", "--to", "fmatrix"):
        "54a5e783861faf7ce430edf13e981b28eb193eacf81a66ccdda8ed5c540ded23",
    ("convert", "--tree=0,1,1,1,2,2,2|0,4,4,2,3,5,2", "--to", "fmatrix-json"):
        "db002add6cbe6cf1d5332db971397e6bc6530cd38ca729aaecd00e3468acf230",
    ("degree", "--tree=0,1,1,1,2,2,2|0,4,4,2,3,5,2"):
        "4d4b4684c3548fee4dd44420ccc967105c05ce93c7eb07831b5db9b7c80ec5b0",
    ("degree", "--tree=0,1,1,1,2,2,2|0,4,4,2,3,5,2", "--json"):
        "2ebd5dfde20d66a4f920f72ca0dfc1bfd323140626b61db239d901be0212f6b5",
    ("validate", "--tree=0,1,1,2,1,2,2,3|1,0,2,2,7,2,2,4"):
        "bc5bbfec5832e756bf98db34a595761681c0b3eed4208262ab3e13b2f0811084",
    ("convert", "--tree=0,1,1,2,1,2,2,3|1,0,2,2,7,2,2,4", "--to", "text"):
        "7b112ed70252e70f76be2a6795b6508a95fd0c7cc2805f5f00699085f848889e",
    ("convert", "--tree=0,1,1,2,1,2,2,3|1,0,2,2,7,2,2,4", "--to", "json"):
        "6b4d3869e80e134f5948cdd19ff2b7b6dd3dfe178aafd7959cec401c59e99425",
    ("convert", "--tree=0,1,1,2,1,2,2,3|1,0,2,2,7,2,2,4", "--to", "fmatrix"):
        "0137214845a261ff0a138388d50687a262fda8bf6645b21296162e618adce85d",
    ("convert", "--tree=0,1,1,2,1,2,2,3|1,0,2,2,7,2,2,4", "--to", "fmatrix-json"):
        "2ce38941203274d62d298fb8be609792693298a716c6c35b1ff6767a6035ad82",
    ("degree", "--tree=0,1,1,2,1,2,2,3|1,0,2,2,7,2,2,4"):
        "8c4ef1e666c71c00e8b86eb29fbcdd62fcf7a85a0b063b6a142d61faa2d5c35b",
    ("degree", "--tree=0,1,1,2,1,2,2,3|1,0,2,2,7,2,2,4", "--json"):
        "31eb56f525e2dcbbbdb41f325a292e8a5c58913604b373072eeae3475836b8c9",
    ("validate", "--tree=0,1,1,2,2|0,0,2,4,6"):
        "cb696bd67b4383d5472a3d735e50253cbdd784fa7d527675563ae82cacb758c6",
    ("convert", "--tree=0,1,1,2,2|0,0,2,4,6", "--to", "text"):
        "4407ec5d21fc506261624ec653c5afd8b2bbab8324be6731c027c2f36d3ff9ba",
    ("convert", "--tree=0,1,1,2,2|0,0,2,4,6", "--to", "json"):
        "d99d83e7c266d02ec58dbe834b9aef2d06f194b56f2e6786e99a5ba0d4498b32",
    ("convert", "--tree=0,1,1,2,2|0,0,2,4,6", "--to", "fmatrix"):
        "b5fc64dc122aab98e6ac38aa7ca3a7e33aff9a75ae2b53d881093dcc577de7d9",
    ("convert", "--tree=0,1,1,2,2|0,0,2,4,6", "--to", "fmatrix-json"):
        "afad7c2c2e43b01ac329dd23bc9a3794a55336d43d23a0516d848241afea62a3",
    ("degree", "--tree=0,1,1,2,2|0,0,2,4,6"):
        "08c8a2d93e5ca894ecde94de6e60e39d86dd49ce5188059e0b1fcb0fc8595281",
    ("degree", "--tree=0,1,1,2,2|0,0,2,4,6", "--json"):
        "4e7a23df042e713e17a70343b37d5e029a12671932d84aa09257fa23cf05f253",
    ("validate", "--tree={\"t\": [0, 1], \"l\": [2, 2]}"):
        "4159986b27281a63b3eb059a9e2a6d54523200248158739e376db84f7b48b583",
    ("convert", "--tree={\"t\": [0, 1], \"l\": [2, 2]}", "--to", "text"):
        "771f54197cc2efa4080029c469872f86efe3a99aec3296e024ecdf0d4485f9ea",
    ("convert", "--tree={\"t\": [0, 1], \"l\": [2, 2]}", "--to", "json"):
        "5c92c5e22312656b64cbb458f9c66a4c4e2e44ee3f8951bd1852dbdca6484953",
    ("convert", "--tree={\"t\": [0, 1], \"l\": [2, 2]}", "--to", "fmatrix"):
        "211366f6052d768256c008c477b5043d2519b3c356dc86d0441b95768e378afc",
    ("convert", "--tree={\"t\": [0, 1], \"l\": [2, 2]}", "--to", "fmatrix-json"):
        "ab3280df37e9d6555d24dfe05f21430c4f7893435c9de207f8de17a498e990d4",
    ("degree", "--tree={\"t\": [0, 1], \"l\": [2, 2]}"):
        "b74757f05e94103326cb35b3dbaaf3872d89ea1104b6ee738715c6d50b302e85",
    ("degree", "--tree={\"t\": [0, 1], \"l\": [2, 2]}", "--json"):
        "6f433049d967f1624a14f01d12c53c6d340f67f29517240d2a01f7d4a76dc168",
    ("validate", "--tree=0,1|2,1"):
        "87808d5c20a51a795580771813397cef45697855b795e863dbe5516d22310423",
    ("convert", "--tree=0,1|2,1", "--to", "text"):
        "5970361d23c79347b4205ae8990b45f82a01e8bf364e99166266206da87ea6c5",
    ("convert", "--tree=0,1|2,1", "--to", "json"):
        "5970361d23c79347b4205ae8990b45f82a01e8bf364e99166266206da87ea6c5",
    ("convert", "--tree=0,1|2,1", "--to", "fmatrix"):
        "5970361d23c79347b4205ae8990b45f82a01e8bf364e99166266206da87ea6c5",
    ("convert", "--tree=0,1|2,1", "--to", "fmatrix-json"):
        "5970361d23c79347b4205ae8990b45f82a01e8bf364e99166266206da87ea6c5",
    ("degree", "--tree=0,1|2,1"):
        "5970361d23c79347b4205ae8990b45f82a01e8bf364e99166266206da87ea6c5",
    ("degree", "--tree=0,1|2,1", "--json"):
        "5970361d23c79347b4205ae8990b45f82a01e8bf364e99166266206da87ea6c5",
    ("validate", "--tree=0,2|2,2"):
        "c5214b0da9dd64bd6d84aba7e555c816477d179696105c28c8e2a322d67d9375",
    ("convert", "--tree=0,2|2,2", "--to", "text"):
        "0dc727fc0ec75ed906153b984016f546997144b9a20f14b5291f03efb446316d",
    ("convert", "--tree=0,2|2,2", "--to", "json"):
        "0dc727fc0ec75ed906153b984016f546997144b9a20f14b5291f03efb446316d",
    ("convert", "--tree=0,2|2,2", "--to", "fmatrix"):
        "0dc727fc0ec75ed906153b984016f546997144b9a20f14b5291f03efb446316d",
    ("convert", "--tree=0,2|2,2", "--to", "fmatrix-json"):
        "0dc727fc0ec75ed906153b984016f546997144b9a20f14b5291f03efb446316d",
    ("degree", "--tree=0,2|2,2"):
        "0dc727fc0ec75ed906153b984016f546997144b9a20f14b5291f03efb446316d",
    ("degree", "--tree=0,2|2,2", "--json"):
        "0dc727fc0ec75ed906153b984016f546997144b9a20f14b5291f03efb446316d",
    ("validate", "--tree=1|4"):
        "c5214b0da9dd64bd6d84aba7e555c816477d179696105c28c8e2a322d67d9375",
    ("convert", "--tree=1|4", "--to", "text"):
        "95872dc7b3f0e0a477380abf4e35b590e87b15c4f427e35e55c4308e490eeaeb",
    ("convert", "--tree=1|4", "--to", "json"):
        "95872dc7b3f0e0a477380abf4e35b590e87b15c4f427e35e55c4308e490eeaeb",
    ("convert", "--tree=1|4", "--to", "fmatrix"):
        "95872dc7b3f0e0a477380abf4e35b590e87b15c4f427e35e55c4308e490eeaeb",
    ("convert", "--tree=1|4", "--to", "fmatrix-json"):
        "95872dc7b3f0e0a477380abf4e35b590e87b15c4f427e35e55c4308e490eeaeb",
    ("degree", "--tree=1|4"):
        "95872dc7b3f0e0a477380abf4e35b590e87b15c4f427e35e55c4308e490eeaeb",
    ("degree", "--tree=1|4", "--json"):
        "95872dc7b3f0e0a477380abf4e35b590e87b15c4f427e35e55c4308e490eeaeb",
    ("validate", "--tree=0,1|4"):
        "ed603a2f3934590c6fb70c6609b22b7ed2c6415d73908985cd81a34570e0bad4",
    ("convert", "--tree=0,1|4", "--to", "text"):
        "ed603a2f3934590c6fb70c6609b22b7ed2c6415d73908985cd81a34570e0bad4",
    ("convert", "--tree=0,1|4", "--to", "json"):
        "ed603a2f3934590c6fb70c6609b22b7ed2c6415d73908985cd81a34570e0bad4",
    ("convert", "--tree=0,1|4", "--to", "fmatrix"):
        "ed603a2f3934590c6fb70c6609b22b7ed2c6415d73908985cd81a34570e0bad4",
    ("convert", "--tree=0,1|4", "--to", "fmatrix-json"):
        "ed603a2f3934590c6fb70c6609b22b7ed2c6415d73908985cd81a34570e0bad4",
    ("degree", "--tree=0,1|4"):
        "ed603a2f3934590c6fb70c6609b22b7ed2c6415d73908985cd81a34570e0bad4",
    ("degree", "--tree=0,1|4", "--json"):
        "ed603a2f3934590c6fb70c6609b22b7ed2c6415d73908985cd81a34570e0bad4",
    ("validate", "--tree="):
        "75b1d54d99e480ef43d4a42c0a86ebf16fb4e17477ab97bc14b77b635d8f6bfd",
    ("convert", "--tree=", "--to", "text"):
        "75b1d54d99e480ef43d4a42c0a86ebf16fb4e17477ab97bc14b77b635d8f6bfd",
    ("convert", "--tree=", "--to", "json"):
        "75b1d54d99e480ef43d4a42c0a86ebf16fb4e17477ab97bc14b77b635d8f6bfd",
    ("convert", "--tree=", "--to", "fmatrix"):
        "75b1d54d99e480ef43d4a42c0a86ebf16fb4e17477ab97bc14b77b635d8f6bfd",
    ("convert", "--tree=", "--to", "fmatrix-json"):
        "75b1d54d99e480ef43d4a42c0a86ebf16fb4e17477ab97bc14b77b635d8f6bfd",
    ("degree", "--tree="):
        "75b1d54d99e480ef43d4a42c0a86ebf16fb4e17477ab97bc14b77b635d8f6bfd",
    ("degree", "--tree=", "--json"):
        "75b1d54d99e480ef43d4a42c0a86ebf16fb4e17477ab97bc14b77b635d8f6bfd",
    ("validate", "--tree={\"t\": [0], \"l\": [4.0]}"):
        "f5633bd122ffc752d74c27ee9c2766adc46061f1d88ddb2b4294fcdd0686dbcc",
    ("convert", "--tree={\"t\": [0], \"l\": [4.0]}", "--to", "text"):
        "f5633bd122ffc752d74c27ee9c2766adc46061f1d88ddb2b4294fcdd0686dbcc",
    ("convert", "--tree={\"t\": [0], \"l\": [4.0]}", "--to", "json"):
        "f5633bd122ffc752d74c27ee9c2766adc46061f1d88ddb2b4294fcdd0686dbcc",
    ("convert", "--tree={\"t\": [0], \"l\": [4.0]}", "--to", "fmatrix"):
        "f5633bd122ffc752d74c27ee9c2766adc46061f1d88ddb2b4294fcdd0686dbcc",
    ("convert", "--tree={\"t\": [0], \"l\": [4.0]}", "--to", "fmatrix-json"):
        "f5633bd122ffc752d74c27ee9c2766adc46061f1d88ddb2b4294fcdd0686dbcc",
    ("degree", "--tree={\"t\": [0], \"l\": [4.0]}"):
        "f5633bd122ffc752d74c27ee9c2766adc46061f1d88ddb2b4294fcdd0686dbcc",
    ("degree", "--tree={\"t\": [0], \"l\": [4.0]}", "--json"):
        "f5633bd122ffc752d74c27ee9c2766adc46061f1d88ddb2b4294fcdd0686dbcc",
    ("validate", "--tree={\"t\": [0]}"):
        "15fb582321b7388647ee168c583de7c23027f91ec82aedfe56d90b35fe6b8f25",
    ("convert", "--tree={\"t\": [0]}", "--to", "text"):
        "15fb582321b7388647ee168c583de7c23027f91ec82aedfe56d90b35fe6b8f25",
    ("convert", "--tree={\"t\": [0]}", "--to", "json"):
        "15fb582321b7388647ee168c583de7c23027f91ec82aedfe56d90b35fe6b8f25",
    ("convert", "--tree={\"t\": [0]}", "--to", "fmatrix"):
        "15fb582321b7388647ee168c583de7c23027f91ec82aedfe56d90b35fe6b8f25",
    ("convert", "--tree={\"t\": [0]}", "--to", "fmatrix-json"):
        "15fb582321b7388647ee168c583de7c23027f91ec82aedfe56d90b35fe6b8f25",
    ("degree", "--tree={\"t\": [0]}"):
        "15fb582321b7388647ee168c583de7c23027f91ec82aedfe56d90b35fe6b8f25",
    ("degree", "--tree={\"t\": [0]}", "--json"):
        "15fb582321b7388647ee168c583de7c23027f91ec82aedfe56d90b35fe6b8f25",
    ("validate", "--tree=0|4|"):
        "7abc799b03495c65e880ece4eef4929fd70728ce07d9aeae863bdadfa3500dc3",
    ("convert", "--tree=0|4|", "--to", "text"):
        "7abc799b03495c65e880ece4eef4929fd70728ce07d9aeae863bdadfa3500dc3",
    ("convert", "--tree=0|4|", "--to", "json"):
        "7abc799b03495c65e880ece4eef4929fd70728ce07d9aeae863bdadfa3500dc3",
    ("convert", "--tree=0|4|", "--to", "fmatrix"):
        "7abc799b03495c65e880ece4eef4929fd70728ce07d9aeae863bdadfa3500dc3",
    ("convert", "--tree=0|4|", "--to", "fmatrix-json"):
        "7abc799b03495c65e880ece4eef4929fd70728ce07d9aeae863bdadfa3500dc3",
    ("degree", "--tree=0|4|"):
        "7abc799b03495c65e880ece4eef4929fd70728ce07d9aeae863bdadfa3500dc3",
    ("degree", "--tree=0|4|", "--json"):
        "7abc799b03495c65e880ece4eef4929fd70728ce07d9aeae863bdadfa3500dc3",
    ("validate", "--tree=0|+4"):
        "d76336c11f37b1bd2034647f24b6f3c82ccbe585b929507969afb3581f802cbb",
    ("convert", "--tree=0|+4", "--to", "text"):
        "d76336c11f37b1bd2034647f24b6f3c82ccbe585b929507969afb3581f802cbb",
    ("convert", "--tree=0|+4", "--to", "json"):
        "d76336c11f37b1bd2034647f24b6f3c82ccbe585b929507969afb3581f802cbb",
    ("convert", "--tree=0|+4", "--to", "fmatrix"):
        "d76336c11f37b1bd2034647f24b6f3c82ccbe585b929507969afb3581f802cbb",
    ("convert", "--tree=0|+4", "--to", "fmatrix-json"):
        "d76336c11f37b1bd2034647f24b6f3c82ccbe585b929507969afb3581f802cbb",
    ("degree", "--tree=0|+4"):
        "d76336c11f37b1bd2034647f24b6f3c82ccbe585b929507969afb3581f802cbb",
    ("degree", "--tree=0|+4", "--json"):
        "d76336c11f37b1bd2034647f24b6f3c82ccbe585b929507969afb3581f802cbb",
    ("validate", "--tree=0| 4"):
        "33190043f8d0e9221e600cb1c8a4b487a75040a57018da9de9e931e3f8f9620d",
    ("convert", "--tree=0| 4", "--to", "text"):
        "33190043f8d0e9221e600cb1c8a4b487a75040a57018da9de9e931e3f8f9620d",
    ("convert", "--tree=0| 4", "--to", "json"):
        "33190043f8d0e9221e600cb1c8a4b487a75040a57018da9de9e931e3f8f9620d",
    ("convert", "--tree=0| 4", "--to", "fmatrix"):
        "33190043f8d0e9221e600cb1c8a4b487a75040a57018da9de9e931e3f8f9620d",
    ("convert", "--tree=0| 4", "--to", "fmatrix-json"):
        "33190043f8d0e9221e600cb1c8a4b487a75040a57018da9de9e931e3f8f9620d",
    ("degree", "--tree=0| 4"):
        "33190043f8d0e9221e600cb1c8a4b487a75040a57018da9de9e931e3f8f9620d",
    ("degree", "--tree=0| 4", "--json"):
        "33190043f8d0e9221e600cb1c8a4b487a75040a57018da9de9e931e3f8f9620d",
    ("validate", "--tree=0|4_0"):
        "16f5982d588214b33ec62661efc6e3e0ba007c2c2fef344cf14bdfd5b5bfc6f2",
    ("convert", "--tree=0|4_0", "--to", "text"):
        "16f5982d588214b33ec62661efc6e3e0ba007c2c2fef344cf14bdfd5b5bfc6f2",
    ("convert", "--tree=0|4_0", "--to", "json"):
        "16f5982d588214b33ec62661efc6e3e0ba007c2c2fef344cf14bdfd5b5bfc6f2",
    ("convert", "--tree=0|4_0", "--to", "fmatrix"):
        "16f5982d588214b33ec62661efc6e3e0ba007c2c2fef344cf14bdfd5b5bfc6f2",
    ("convert", "--tree=0|4_0", "--to", "fmatrix-json"):
        "16f5982d588214b33ec62661efc6e3e0ba007c2c2fef344cf14bdfd5b5bfc6f2",
    ("degree", "--tree=0|4_0"):
        "16f5982d588214b33ec62661efc6e3e0ba007c2c2fef344cf14bdfd5b5bfc6f2",
    ("degree", "--tree=0|4_0", "--json"):
        "16f5982d588214b33ec62661efc6e3e0ba007c2c2fef344cf14bdfd5b5bfc6f2",
    ("validate", "--tree=0,,1|2,2"):
        "efcbc15041ccd30bb41733a5eb068589e650c056ada8c7b68a6fb785b28708f3",
    ("convert", "--tree=0,,1|2,2", "--to", "text"):
        "efcbc15041ccd30bb41733a5eb068589e650c056ada8c7b68a6fb785b28708f3",
    ("convert", "--tree=0,,1|2,2", "--to", "json"):
        "efcbc15041ccd30bb41733a5eb068589e650c056ada8c7b68a6fb785b28708f3",
    ("convert", "--tree=0,,1|2,2", "--to", "fmatrix"):
        "efcbc15041ccd30bb41733a5eb068589e650c056ada8c7b68a6fb785b28708f3",
    ("convert", "--tree=0,,1|2,2", "--to", "fmatrix-json"):
        "efcbc15041ccd30bb41733a5eb068589e650c056ada8c7b68a6fb785b28708f3",
    ("degree", "--tree=0,,1|2,2"):
        "efcbc15041ccd30bb41733a5eb068589e650c056ada8c7b68a6fb785b28708f3",
    ("degree", "--tree=0,,1|2,2", "--json"):
        "efcbc15041ccd30bb41733a5eb068589e650c056ada8c7b68a6fb785b28708f3",
    ("validate", "--tree=--1|4"):
        "f0ba74127bc6a80584bb272da8c009ec1ade8db832e7f99f74c7fd80b663c4c8",
    ("convert", "--tree=--1|4", "--to", "text"):
        "f0ba74127bc6a80584bb272da8c009ec1ade8db832e7f99f74c7fd80b663c4c8",
    ("convert", "--tree=--1|4", "--to", "json"):
        "f0ba74127bc6a80584bb272da8c009ec1ade8db832e7f99f74c7fd80b663c4c8",
    ("convert", "--tree=--1|4", "--to", "fmatrix"):
        "f0ba74127bc6a80584bb272da8c009ec1ade8db832e7f99f74c7fd80b663c4c8",
    ("convert", "--tree=--1|4", "--to", "fmatrix-json"):
        "f0ba74127bc6a80584bb272da8c009ec1ade8db832e7f99f74c7fd80b663c4c8",
    ("degree", "--tree=--1|4"):
        "f0ba74127bc6a80584bb272da8c009ec1ade8db832e7f99f74c7fd80b663c4c8",
    ("degree", "--tree=--1|4", "--json"):
        "f0ba74127bc6a80584bb272da8c009ec1ade8db832e7f99f74c7fd80b663c4c8",
    ("validate", "--tree=-0|4"):
        "5cda91d5c92776737d5cdda80905bbca633ea3ed471e9eda5401db9b892d8266",
    ("convert", "--tree=-0|4", "--to", "text"):
        "9f99deac1ec177befbc0e5e9dcea4695d38780f4c0513db323929e7bc0d4852f",
    ("convert", "--tree=-0|4", "--to", "json"):
        "4e66c6a79e0eb91b4eb3acefca8a788080388210456da3ca7dcf26b8a7257547",
    ("convert", "--tree=-0|4", "--to", "fmatrix"):
        "f38c2765cfa197dbbb6b9b1a584a186b8255b0a1db17fc0b9ddc675922fe747d",
    ("convert", "--tree=-0|4", "--to", "fmatrix-json"):
        "9cfcdf518321151feca9a3c854259b24e06a47601cf2e0f2d9ec7b5255a9fca5",
    ("degree", "--tree=-0|4"):
        "c9cd89d62a31b456cfe76ef119583826985c79c4fff433b9176a71210d7db219",
    ("degree", "--tree=-0|4", "--json"):
        "3cc108752baef56431f430b7b1fc085feaedae4cc06da8f1a60c663de372a8d5",
    ("validate", "--tree=0|007"):
        "fce26bbfc1e6ec715053ff8ee3159ceb72035a0c99d3d234d88632022f0631fa",
    ("convert", "--tree=0|007", "--to", "text"):
        "b94a2d8fb4db741fe9141fe245756a672668631e86c6274e02bca9cbe48e3d3f",
    ("convert", "--tree=0|007", "--to", "json"):
        "7153c15435221c3dda3244751da9e35682653e88d6171135ff34e3baa3b08cbf",
    ("convert", "--tree=0|007", "--to", "fmatrix"):
        "1670e42340a0bb0f16266d018cf7d23af52cf5616ffc08efcf8935af1b03203f",
    ("convert", "--tree=0|007", "--to", "fmatrix-json"):
        "2ab48bbb615074ab0e45a91da52068b7fb0b136decf82701b26310d68d7c9add",
    ("degree", "--tree=0|007"):
        "0856710828d859fafe6e694bf4664f58d103b45d4cc067d718786b98acb320cc",
    ("degree", "--tree=0|007", "--json"):
        "ec64b2e271a3ef0fac99edf35ad0f0453df87ca20efb902d1161c0ce43a25ace",
    ("validate", "--tree=0|2,²"):
        "8421c9b8f3fb9c32cb6fcb5f807e1eab210262625e59b8f053567b245fb685c6",
    ("convert", "--tree=0|2,²", "--to", "text"):
        "8421c9b8f3fb9c32cb6fcb5f807e1eab210262625e59b8f053567b245fb685c6",
    ("convert", "--tree=0|2,²", "--to", "json"):
        "8421c9b8f3fb9c32cb6fcb5f807e1eab210262625e59b8f053567b245fb685c6",
    ("convert", "--tree=0|2,²", "--to", "fmatrix"):
        "8421c9b8f3fb9c32cb6fcb5f807e1eab210262625e59b8f053567b245fb685c6",
    ("convert", "--tree=0|2,²", "--to", "fmatrix-json"):
        "8421c9b8f3fb9c32cb6fcb5f807e1eab210262625e59b8f053567b245fb685c6",
    ("degree", "--tree=0|2,²"):
        "8421c9b8f3fb9c32cb6fcb5f807e1eab210262625e59b8f053567b245fb685c6",
    ("degree", "--tree=0|2,²", "--json"):
        "8421c9b8f3fb9c32cb6fcb5f807e1eab210262625e59b8f053567b245fb685c6",
    ("validate", "--tree=0|٣"):
        "bda9224eb3e91eb7c0ea896d677ffeecd5f7faaed639c6c68a43d653b9ca36ff",
    ("convert", "--tree=0|٣", "--to", "text"):
        "b3541eb9250a5f4259f5a43d007cf10fd9d3aa1784387964af9a031c10cb63cd",
    ("convert", "--tree=0|٣", "--to", "json"):
        "1a3641aab8b1b1972361b1d32775e680ed6f8d099c9ece6a89c80f116f75cce3",
    ("convert", "--tree=0|٣", "--to", "fmatrix"):
        "584a80e59d0d5a7fd5c4d968ab77548840d083dff98015748aa5fb3feed7b39f",
    ("convert", "--tree=0|٣", "--to", "fmatrix-json"):
        "cac40ec4e4bd1e15cb370dee98840764f44597831d2753505e6a44be327f9676",
    ("degree", "--tree=0|٣"):
        "431631d11ec58e74f7fbae3166a505c628d0c8b9044fb64f1f8fa145fab34d32",
    ("degree", "--tree=0|٣", "--json"):
        "319f157988ed1a16a9cb0842a71f5011191c1c7d2ad4ecf153274ae02cc9b23b",
    # Pairs of literals: same and different N, malformed and rule-breaking.
    ("distance", "--a=0|4", "--b=0,1|2,2"):
        "63400b7c6c5bc09fc7350f2c6543f5de81c3648cd8adcf18a16d7bfa62aba7de",
    ("distance", "--a=0|4", "--b=0,1|2,2", "--json"):
        "c08938a11e628a9f9a4d92fad9e5876283ba5e4e078b76afc2b43e2c967aed5f",
    ("lub", "--a=0|4", "--b=0,1|2,2"):
        "9f99deac1ec177befbc0e5e9dcea4695d38780f4c0513db323929e7bc0d4852f",
    ("lub", "--a=0|4", "--b=0,1|2,2", "--json"):
        "f9331d2b1749b32ee70668dc15886fd65b9b874da65135f0bbf635e3df7b1cfe",
    ("distance", "--a=0,1,2|1,1,2", "--b=0,1|2,2"):
        "63400b7c6c5bc09fc7350f2c6543f5de81c3648cd8adcf18a16d7bfa62aba7de",
    ("distance", "--a=0,1,2|1,1,2", "--b=0,1|2,2", "--json"):
        "c08938a11e628a9f9a4d92fad9e5876283ba5e4e078b76afc2b43e2c967aed5f",
    ("lub", "--a=0,1,2|1,1,2", "--b=0,1|2,2"):
        "771f54197cc2efa4080029c469872f86efe3a99aec3296e024ecdf0d4485f9ea",
    ("lub", "--a=0,1,2|1,1,2", "--b=0,1|2,2", "--json"):
        "f9077a8c608c18bf1a4de4635e730cfde8575f790d2c4e6d0d0d48ef7e4fcc12",
    ("distance", "--a=0,1,2,3|1,1,1,2", "--b=0,1,1|1,2,2"):
        "584a80e59d0d5a7fd5c4d968ab77548840d083dff98015748aa5fb3feed7b39f",
    ("distance", "--a=0,1,2,3|1,1,1,2", "--b=0,1,1|1,2,2", "--json"):
        "ef1d515163bec8fd115c27fa71d7e0956ed773f04929a5f3c45b453d5d75a2dd",
    ("lub", "--a=0,1,2,3|1,1,1,2", "--b=0,1,1|1,2,2"):
        "d60672f4e6507da91da35e48f5e8d10199b268235b49f94922988d6906c4f0fa",
    ("lub", "--a=0,1,2,3|1,1,1,2", "--b=0,1,1|1,2,2", "--json"):
        "6f5d697fad46dc8a32da8853b5234b9f2aca5fa747633ee7a9e5ff508c7d0475",
    ("distance", "--a=0,1,2|1,1,2", "--b=0,1,2|1,1,2"):
        "93ae3b536c740e244712538e00afe02c545d44b8f943a800abe8c753f4d55309",
    ("distance", "--a=0,1,2|1,1,2", "--b=0,1,2|1,1,2", "--json"):
        "2bf4b677ca167a8a5c6b776982d6814e2fa5ee846068ec07363442825bee83ac",
    ("lub", "--a=0,1,2|1,1,2", "--b=0,1,2|1,1,2"):
        "6afb86618ea9db93c3b828245111f60739417857fe2f914096d9d6c188b37252",
    ("lub", "--a=0,1,2|1,1,2", "--b=0,1,2|1,1,2", "--json"):
        "f3662a8b750967b96870738f1290ace81e7246f7fc24ec6abbbdb8697453fe76",
    ("distance", "--a={\"t\": [0, 1], \"l\": [2, 2]}", "--b=0,1,2|1,1,2"):
        "63400b7c6c5bc09fc7350f2c6543f5de81c3648cd8adcf18a16d7bfa62aba7de",
    ("distance", "--a={\"t\": [0, 1], \"l\": [2, 2]}", "--b=0,1,2|1,1,2", "--json"):
        "c08938a11e628a9f9a4d92fad9e5876283ba5e4e078b76afc2b43e2c967aed5f",
    ("lub", "--a={\"t\": [0, 1], \"l\": [2, 2]}", "--b=0,1,2|1,1,2"):
        "771f54197cc2efa4080029c469872f86efe3a99aec3296e024ecdf0d4485f9ea",
    ("lub", "--a={\"t\": [0, 1], \"l\": [2, 2]}", "--b=0,1,2|1,1,2", "--json"):
        "f9077a8c608c18bf1a4de4635e730cfde8575f790d2c4e6d0d0d48ef7e4fcc12",
    ("distance", "--a=0,1,1,1,2,2,2|0,4,4,2,3,5,2", "--b=0|20"):
        "ed7be8e2a1701d2c34e9a43524e045b9ea3fe146a45e6779c83ff5a252ec92e9",
    ("distance", "--a=0,1,1,1,2,2,2|0,4,4,2,3,5,2", "--b=0|20", "--json"):
        "6b30b6b15773f8cfab3a6c69e59d1d436c8f228d5696dcd60939eee056907f6f",
    ("lub", "--a=0,1,1,1,2,2,2|0,4,4,2,3,5,2", "--b=0|20"):
        "cec4b3fa65a89a6fb882d9d28f6e95819b155e3c1c1ca95871e1efcf7c6fd3f5",
    ("lub", "--a=0,1,1,1,2,2,2|0,4,4,2,3,5,2", "--b=0|20", "--json"):
        "dc2c2e4b1fa86c3df57600b060f4c5fac6a115856e6a4d0286f400f9f82c1b9d",
    ("distance", "--a=0,1,1,1,2,2,2|0,4,4,2,3,5,2", "--b=0,1,1,2,1,2,2,3|1,0,2,2,7,2,2,4"):
        "e22e35e9f8c4605d4ddfdb00ff8f7b347782a70c09ec66cc0b6aeb2a4c072d7c",
    ("distance", "--a=0,1,1,1,2,2,2|0,4,4,2,3,5,2", "--b=0,1,1,2,1,2,2,3|1,0,2,2,7,2,2,4", "--json"):
        "d8b0eacd2cba1a3ef5da6e372dac3fed9bc03e767e4fc5cc0e927464ac4607bf",
    ("lub", "--a=0,1,1,1,2,2,2|0,4,4,2,3,5,2", "--b=0,1,1,2,1,2,2,3|1,0,2,2,7,2,2,4"):
        "cec4b3fa65a89a6fb882d9d28f6e95819b155e3c1c1ca95871e1efcf7c6fd3f5",
    ("lub", "--a=0,1,1,1,2,2,2|0,4,4,2,3,5,2", "--b=0,1,1,2,1,2,2,3|1,0,2,2,7,2,2,4", "--json"):
        "dc2c2e4b1fa86c3df57600b060f4c5fac6a115856e6a4d0286f400f9f82c1b9d",
    ("distance", "--a=0,1,1,2,2|0,0,2,4,6", "--b=0,1|1,11"):
        "d9b877ced18282e72021744fee875b9b864272d28e33f68a886f60958135fe03",
    ("distance", "--a=0,1,1,2,2|0,0,2,4,6", "--b=0,1|1,11", "--json"):
        "ddf37d82374736dc265154e4fc8dd7982c39e50ddc4483c6001b6c99c4683e9e",
    ("lub", "--a=0,1,1,2,2|0,0,2,4,6", "--b=0,1|1,11"):
        "43d2f388646ac32a03e463c1ae07ccac955b8db54629b4843c4d392716d4c0f9",
    ("lub", "--a=0,1,1,2,2|0,0,2,4,6", "--b=0,1|1,11", "--json"):
        "f9a08547adfe4fb00cafd19868c86908c0228f7623b41f78761bf9db06a77ad8",
    ("distance", "--a=0|4", "--b=0|5"):
        "1d16a34dc814629e0f2bc063c5536165f84c47b8c6210d88537b43179c14604e",
    ("distance", "--a=0|4", "--b=0|5", "--json"):
        "1d16a34dc814629e0f2bc063c5536165f84c47b8c6210d88537b43179c14604e",
    ("lub", "--a=0|4", "--b=0|5"):
        "1d16a34dc814629e0f2bc063c5536165f84c47b8c6210d88537b43179c14604e",
    ("lub", "--a=0|4", "--b=0|5", "--json"):
        "1d16a34dc814629e0f2bc063c5536165f84c47b8c6210d88537b43179c14604e",
    ("distance", "--a=0|4", "--b=0|4|"):
        "7abc799b03495c65e880ece4eef4929fd70728ce07d9aeae863bdadfa3500dc3",
    ("distance", "--a=0|4", "--b=0|4|", "--json"):
        "7abc799b03495c65e880ece4eef4929fd70728ce07d9aeae863bdadfa3500dc3",
    ("lub", "--a=0|4", "--b=0|4|"):
        "7abc799b03495c65e880ece4eef4929fd70728ce07d9aeae863bdadfa3500dc3",
    ("lub", "--a=0|4", "--b=0|4|", "--json"):
        "7abc799b03495c65e880ece4eef4929fd70728ce07d9aeae863bdadfa3500dc3",
    ("distance", "--a=0,1|2,1", "--b=0|3"):
        "5970361d23c79347b4205ae8990b45f82a01e8bf364e99166266206da87ea6c5",
    ("distance", "--a=0,1|2,1", "--b=0|3", "--json"):
        "5970361d23c79347b4205ae8990b45f82a01e8bf364e99166266206da87ea6c5",
    ("lub", "--a=0,1|2,1", "--b=0|3"):
        "5970361d23c79347b4205ae8990b45f82a01e8bf364e99166266206da87ea6c5",
    ("lub", "--a=0,1|2,1", "--b=0|3", "--json"):
        "5970361d23c79347b4205ae8990b45f82a01e8bf364e99166266206da87ea6c5",
    ("distance", "--a=-0|4", "--b=0|007"):
        "0b81c35b0c44456223c45d73f0f4de1c079f1e6da2e7b6a0b8223ce9bbe1dc10",
    ("distance", "--a=-0|4", "--b=0|007", "--json"):
        "0b81c35b0c44456223c45d73f0f4de1c079f1e6da2e7b6a0b8223ce9bbe1dc10",
    ("lub", "--a=-0|4", "--b=0|007"):
        "0b81c35b0c44456223c45d73f0f4de1c079f1e6da2e7b6a0b8223ce9bbe1dc10",
    ("lub", "--a=-0|4", "--b=0|007", "--json"):
        "0b81c35b0c44456223c45d73f0f4de1c079f1e6da2e7b6a0b8223ce9bbe1dc10",
    # stats on JSON lines only and on a late bad line; error exits whose
    # messages name no path.
    ("stats", "--in", "{jsonl}"):
        "49871d84044e9ceb8d52b857c3e47016c68d95e28450ee096f1cc8891bbfc542",
    ("stats", "--in", "{jsonl}", "--json"):
        "6292e3580d284d2c8fb843504b66086eef4a20ac0196215c44a5ad9574be5b27",
    ("stats", "--in", "{late}"):
        "cb1d1d068f4c32213e334129af17f7013eb217dc5c07109358c162e12ecbee8b",
    ("stats", "--in", "{late}", "--json"):
        "cb1d1d068f4c32213e334129af17f7013eb217dc5c07109358c162e12ecbee8b",
    ("stats", "--in", "{jsonl}", "--max-cherry", "3"):
        "be5f1e3bc817b73137bb1db4d0816582cc0efeb0a9c986d3789287670c8cb80f",
    ("stats", "--in", "{empty}"):
        "1026541d72c1c1c1065a93278ac48d041282a34d6f4a7cb7edb66a2969f83386",
    ("stats", "--in", "{stats}", "--max-cherry", "0"):
        "d58cc6c1ac35b24ef616543d5eaa4ba1590d5200518365feb99a6a84be186950",
    ("stats", "--in", "{stats}", "--max-cherry", "1001"):
        "9e337e7b7c4be965aea24401b2b89a9ff411c931cedcca35ab7d59be06278cda",
    ("enumerate", "--n", "151"):
        "9ef299d9fe78a6b494e92ecf5f54e2bb8f205fcb61ac3107d22b5a48042b4cc8",
    ("enumerate", "--n", "1"):
        "13ff64c3c29711b4e350b97a11490f3d3cfc31208c39c81924b950a3271d29a3",
    ("bounds", "--n", "3"):
        "2033745c9faa7a418686d1d7eb94a8be432b01f9523349c484a3f48e8934eadc",
    ("bounds", "--n", "151"):
        "9ef299d9fe78a6b494e92ecf5f54e2bb8f205fcb61ac3107d22b5a48042b4cc8",
    ("exact", "--n", "2", "--chain", "sym"):
        "cfb718f8fa16766ce9308525f3ce8e1b657f9dc18b4f368505d146b264e79ee1",
    ("semi-random", "--n", "1", "--seed", "1"):
        "13ff64c3c29711b4e350b97a11490f3d3cfc31208c39c81924b950a3271d29a3",
    ("semi-random", "--n", "5", "--k", "5", "--seed", "1"):
        "ce95c95c8942a9bace2206c3a579baf7914d952bbb1abd98350edadea1a69cd7",
    ("semi-random", "--n", "5", "--count", "0", "--seed", "1"):
        "809b849dd102fac5bfa590309403801f8067556d47b9ffc888875e01f26b6d6a",
    ("sample-coalescent", "--n", "2049", "--count", "1", "--seed", "1"):
        "70ab0383c314936f4b7975fdb4fb94bf442eaa8fae726b5819e81b9d8d99774a",
    ("sample-coalescent", "--n", "1", "--count", "1", "--seed", "1"):
        "13ff64c3c29711b4e350b97a11490f3d3cfc31208c39c81924b950a3271d29a3",
    ("sample-coalescent", "--n", "5", "--count", "0", "--seed", "1"):
        "809b849dd102fac5bfa590309403801f8067556d47b9ffc888875e01f26b6d6a",
    ("sample-coalescent", "--n", "5", "--alpha", "inf", "--count", "1", "--seed", "1"):
        "33456ea1e481acb047b29c11a67fd1889d929addc2da155ce24163109524eeda",
    ("sample-uniform", "--n", "1", "--chains", "2", "--steps", "3", "--seed", "1"):
        "13ff64c3c29711b4e350b97a11490f3d3cfc31208c39c81924b950a3271d29a3",
    ("sample-uniform", "--n", "2", "--chains", "2", "--steps", "3", "--seed", "1"):
        "a29e59bbb98889d000bf59510eab4b7215d2a7a229c0869ba6e0577551bb4df6",
    ("sample-uniform", "--n", "5", "--chains", "0", "--steps", "3", "--seed", "1"):
        "c05152bee0976a7e81d138740b8adf96e983eb5641ea671f5c52ef9522636d5f",
    ("sample-uniform", "--n", "5", "--chains", "2", "--steps", "3", "--seed", "1", "--threads", "0"):
        "f09dcad144eda569bc5f1fa87de912b7f9a4e3d417b5827f0158fba3923b92a1",
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
