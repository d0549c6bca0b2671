"""Golden CLI output: a fixed command list whose exact bytes are pinned.

Every command runs in-process through `cubeturan.cli.main`; its exit code and
the sha256 of its stdout are compared with digests recorded from the
star-string edge-set implementation, as are the subgraph files and JSON
sidecars that `construct` writes. Any change of internal representation must
reproduce them byte for byte. The commands run in order in one directory, so
later ones read the files earlier ones wrote.
"""

import contextlib
import hashlib
import io

import pytest

from cubeturan.cli import main

CONSTRUCT = [
    ("conder9", ("conder", "--n", "9")),
    ("aks10", ("aks", "--n", "10", "--k", "3", "--i", "0", "--j", "0")),
    ("aks9", ("aks", "--n", "9", "--k", "4", "--i", "1", "--j", "2")),
    ("aksapp9", ("aks-appendix", "--n", "9", "--k", "5")),
    ("lc9", ("layer-complement", "--n", "9", "--k", "3", "--i", "0")),
    ("pq8", ("parity-q2", "--n", "8")),
    ("qm8", ("qm-packing", "--n", "8", "--m", "3")),
    ("qmc8", ("qm-packing", "--n", "8", "--m", "3", "--with-cycles", "--l", "3")),
    ("eo10", ("even-odd", "--n", "10", "--j", "1")),
    ("lm8", ("layer-mod", "--n", "8", "--k", "3", "--j", "1", "--complement")),
    ("m3s8", ("mod3-select", "--n", "8", "--l", "4")),
    ("cc8", ("conder-cycles", "--n", "8", "--l", "5")),
    ("tri3", ("layer-mod", "--n", "3", "--k", "3", "--j", "1")),
]

COMMANDS = [(f"construct-{name}", ("construct", *args, "--out", f"{name}.cube"), 0)
            for name, args in CONSTRUCT]
COMMANDS += [
    (f"verify-{name}-{forbid}", ("verify", "--forbid", forbid, f"{name}.cube"), rc)
    for name, forbid, rc in [
        ("aks10", "q3", 0), ("lc9", "q3", 0), ("qm8", "q3", 1), ("eo10", "q3", 0),
        ("aks9", "q4", 0), ("aks9", "q3", 1), ("aksapp9", "q5", 0),
        ("eo10", "c4", 0), ("conder9", "c4", 0), ("aks10", "c4", 1), ("qm8", "c4", 1),
        ("conder9", "c6", 0), ("pq8", "c6", 0), ("qmc8", "c6", 1), ("aks10", "c6", 1),
        ("conder9", "c8", 1), ("qm8", "c8", 1), ("qmc8", "c8", 0), ("eo10", "e", 1),
    ]
]
COMMANDS += [
    (f"count-{name}-{pattern}",
     ("count", "--n", n, "--pattern", pattern, "--input", f"{name}.cube"), 0)
    for name, n, pattern in [
        ("qm8", "8", "q2"), ("qm8", "8", "q3"), ("aks10", "10", "q2"), ("aks10", "10", "q3"),
        ("lc9", "9", "q2"), ("pq8", "8", "q2"), ("m3s8", "8", "q3"),
        ("qm8", "8", "c4"), ("conder9", "9", "c4"), ("aks10", "10", "c4"),
        ("conder9", "9", "c6"), ("m3s8", "8", "c6"), ("lm8", "8", "e"),
    ]
]
COMMANDS += [
    ("kpartite-tri3-2", ("kpartite", "--k", "2", "tri3.cube"), 0),
    ("kpartite-tri3-3", ("kpartite", "--k", "3", "tri3.cube"), 0),
    ("kpartite-pq8-2", ("kpartite", "--k", "2", "pq8.cube"), 0),
    ("search-3-e-c4", ("search", "--n", "3", "--target", "e", "--forbid", "c4",
                       "--witness-out", "w-e-c4.cube"), 0),
    ("search-3-c4-c6", ("search", "--n", "3", "--target", "c4", "--forbid", "c6"), 0),
    ("search-3-q2-q3", ("search", "--n", "3", "--target", "q2", "--forbid", "q3"), 0),
    ("search-3-c6-e", ("search", "--n", "3", "--target", "c6", "--forbid", "e"), 0),
    ("search-3-e-c4-exhaustive", ("search", "--n", "3", "--target", "e", "--forbid", "c4",
                                  "--method", "exhaustive"), 0),
    ("verify-w-e-c4-c4", ("verify", "--forbid", "c4", "w-e-c4.cube"), 0),
]

GOLDEN = {
    "construct-conder9": "f71e81c5e1d80bf37560cde06f5bd9cef802587be3278e05abc9ad4b7603a1f9",
    "construct-aks10": "5f4cb5d7df5da98304b9bbcba41c754d05524a91180c87cb19c40a56eacb1131",
    "construct-aks9": "c2ccc503440dd4375da9179d04bf95b6b7fff5f64d5ff93b7231deb80174bb47",
    "construct-aksapp9": "63f8a83859dcb2df2f3165a409826645b58f355682a5e7fa83c27720b57f6f65",
    "construct-lc9": "40e8d9ab12ba804cb5bc03660b2a7aaf125dae5070e170d629398a2e7dd627bf",
    "construct-pq8": "27b7e791de26a230aeb8c06417b7aa29c3fa854867561ac63e0c602916aba074",
    "construct-qm8": "1e54a71e9db8c4c1c0bb12773b4e36c96a776791bcbac5fad53c10f3c5a9b95b",
    "construct-qmc8": "65466755016a27b38eeced4fef921a417e07f2117103c7657c533a0de2b4946a",
    "construct-eo10": "ef50fe810b1d6d46ff6d87153638df21574b9499eb1922bfd2b60ee91d5ea9cd",
    "construct-lm8": "54671d41be16c0af74713bc739c1c76e61a2a4273eb45e343db99877f7514b22",
    "construct-m3s8": "787c83736d70e596b3d4394891b8a604f4fe8c166544d6424f4afb4184a8ea05",
    "construct-cc8": "dad139b94829ec98df0177194bd1c9e435bd2012b471cb91f533774ae9ab4a55",
    "construct-tri3": "be6dde9f0480a4df930a828e682d67dcdd8c3dc292d10eb66843f3fe79ee9159",
    "verify-aks10-q3": "7f17ce5329860ff4083f796fd98c8994a20cd80aadd62e499392e497d77cb0c1",
    "verify-lc9-q3": "ac32e7f22606e56796edd6a6e5159256474c7583a6bf5d0d4fa078881a149b82",
    "verify-qm8-q3": "ca854ab9ffabd691750197ab150c6efaab7d58d09361a7c941fc7fa01b514825",
    "verify-eo10-q3": "7f17ce5329860ff4083f796fd98c8994a20cd80aadd62e499392e497d77cb0c1",
    "verify-aks9-q4": "ffde51859db8e02d3b0681ec670d1ea25d43d0ef16ab7d03ef827def50cfd957",
    "verify-aks9-q3": "48c11381364d79171f91e0930cae4b22a3d5080c404b9f68b2607ead61f17f37",
    "verify-aksapp9-q5": "05fed8db40c14bfb15e40110963060f4244a22c9f2324c1eb4a798b52eec2acb",
    "verify-eo10-c4": "f234d830c1d06120fd4d7ae392a60c45cea973000c558e935f389be7c8a87f96",
    "verify-conder9-c4": "72ad8984b53f2c476f6b94cd0d2e30b1143d93b217149afc0489f70cce047bef",
    "verify-aks10-c4": "d51613bb2e2fbb5e7dcc74fb663d1b1bfe3d32e1f7e2768dbad186992e7dee4e",
    "verify-qm8-c4": "bec2ec55b2fae96620b8448024b4a24dba4e60f153023082a6af5dd18bb7ba91",
    "verify-conder9-c6": "c96e8ca47e011ec999b8f4bd52e0ba5f4156cb5b1938db12249b3960fb20ed75",
    "verify-pq8-c6": "46dad7a244000bb64416cc4f2c86d6c04979f304200f40ab7060f3c69efba383",
    "verify-qmc8-c6": "eae039c2124202632ad969fd04fcf45810dd252f3b7e3971bb480c78a9bdc2be",
    "verify-aks10-c6": "47ad71f2b5a34d0b51d8cea35af09fd15f6af3e27080d17a1ea616eef1efcba8",
    "verify-conder9-c8": "1fb623c90ae9b7986b70028e3dff88a0fd1704c29f540317adb7361c007d1744",
    "verify-qm8-c8": "fa070dcd5eb49c90b5b9bda1ab69707b1ddfa564c7b4a609b148c906821e3a4a",
    "verify-qmc8-c8": "317ade58fa762138eb61c0a27cf55e764d1e25920dadb0218c6f526d38d28cd0",
    "verify-eo10-e": "bdc59050c2643f8218d3fa3611a00571a9bb10fb6caf12b74b1d34d042b841b9",
    "count-qm8-q2": "7ba43ff522fbb15b17ecf2f66d4db26ea2305e37a5d690c000ac39b4ae3a1a9d",
    "count-qm8-q3": "aa4636d99b99da790046cd62691cfe9fbc1739e8ea8f8006838bbb9e6598ae66",
    "count-aks10-q2": "3fd6a20b9d478d2b225e588cc56632f8116383b5d886f0fffa069d65f7fc0222",
    "count-aks10-q3": "65538bb244e688cf39e1f74b561ed78f87eafbbaff698b11eba6b358eab27a09",
    "count-lc9-q2": "f4e022dc4005fa94af6d38469afdece63f9fe65d0a14049b28a32ae53077d6ba",
    "count-pq8-q2": "95c2fa18398fe0ad330685e4f268037dd0e934c4abca691b2b39ea0eea3ffc25",
    "count-m3s8-q3": "514b42acb19ce371c978f42d26cb68e5d81c64e383525a575648402d10c9652b",
    "count-qm8-c4": "c24ee90230f7aff2789bc72d879b64db8c69600cf1b8506c5c5baae97cf17b82",
    "count-conder9-c4": "8de824298f91bf897cc5b002b698fc39780f62a150f98729a9e6692b028299ed",
    "count-aks10-c4": "c4a5d091ba23c9b1f44c9c55e614591787420ca8b1d9e3e03732a512c5499f73",
    "count-conder9-c6": "d7682eab500d87c6473cf92cc554d589c4a909b9ad5a0d0c6c49e84918bbf42c",
    "count-m3s8-c6": "69d4d43c25760b04a3890448036adc9ee22636947d566181948572b56ab2e953",
    "count-lm8-e": "5a0b547e927fff73fd3ffe20b178722df27d8eb99a6707eb2f431571cd0c29e2",
    "kpartite-tri3-2": "c9af983edf5ebddca20700b2f5d7632329ce89fd8f0a8630abb9155778457864",
    "kpartite-tri3-3": "49b1fa0f7646d9a49186b15d4454e3bca4a669395a232417008bb2601fbb0dea",
    "kpartite-pq8-2": "6a99551e830bfe3b4370cf54b9f454ffcc0489dd154b8889e9659976d80739c3",
    "search-3-e-c4": "018fc5897a41fa7e113e139f503c9972e3c92eb4e660388b25e69dc5adcf1b80",
    "search-3-c4-c6": "10d5acba2cf7a951d9925c36ee2bfbfcdab9587efcd1ca26e3140c28aa0f62c5",
    "search-3-q2-q3": "ab43a79343dd9942ee09a72d858d403892a91f617e25dc1502136529e6b1ab72",
    "search-3-c6-e": "8fd1d48323e6efe7957dc1652eaa0718d9d121bef86bd5d92d2d26529ecdcd2e",
    "search-3-e-c4-exhaustive": "92a29bfb69515a2039086020b8e94844dbff0a376f825ac81fc769b07b683011",
    "verify-w-e-c4-c4": "a5a119efca60078b98dac56687f4243ec0b6354c97c81748a4304212359720dc",
}

FILES = {
    "aks10.cube": "56da63b74ec34add2cad8a3e1499073f22115c536f5f49d2e8e9a3de557c1b45",
    "aks10.cube.json": "5f4cb5d7df5da98304b9bbcba41c754d05524a91180c87cb19c40a56eacb1131",
    "aks9.cube": "a2098b017cfb2b8461d8dd68382123fbef3e670a25b71ecde3aada445dd894cd",
    "aks9.cube.json": "c2ccc503440dd4375da9179d04bf95b6b7fff5f64d5ff93b7231deb80174bb47",
    "aksapp9.cube": "66fad227d65e4707b9c224b27348de8b686e31606537ac62a83d729274ba1d9f",
    "aksapp9.cube.json": "63f8a83859dcb2df2f3165a409826645b58f355682a5e7fa83c27720b57f6f65",
    "cc8.cube": "5daee21a6fa50d5fb6e9540e7ed4dc97818541763a7b2ce4b13e5b814b343123",
    "cc8.cube.json": "dad139b94829ec98df0177194bd1c9e435bd2012b471cb91f533774ae9ab4a55",
    "conder9.cube": "f7ea0706ec3058d75235505a79e137ed27025a491fe0c017ceab83a64782b3b0",
    "conder9.cube.json": "f71e81c5e1d80bf37560cde06f5bd9cef802587be3278e05abc9ad4b7603a1f9",
    "eo10.cube": "bcb8a30a99f376823cc61ea09a3333fb504e6547c90585feb764032cdf71c6e4",
    "eo10.cube.json": "ef50fe810b1d6d46ff6d87153638df21574b9499eb1922bfd2b60ee91d5ea9cd",
    "lc9.cube": "869c06327d9ecd2ced7f82f0651eb0f5814f8297b0a1eaa4cf8a15c4798afe84",
    "lc9.cube.json": "40e8d9ab12ba804cb5bc03660b2a7aaf125dae5070e170d629398a2e7dd627bf",
    "lm8.cube": "25966f36a2085df3970f4a2a80ba8bfc7bcb5809de1f4797c27c0cdc6bec42fd",
    "lm8.cube.json": "54671d41be16c0af74713bc739c1c76e61a2a4273eb45e343db99877f7514b22",
    "m3s8.cube": "105d0df47ef6c19a586926d7c015a3f42c6de70e65dfc204fbe3310c945d82f3",
    "m3s8.cube.json": "787c83736d70e596b3d4394891b8a604f4fe8c166544d6424f4afb4184a8ea05",
    "pq8.cube": "75a98419e3d5248f2522a1583c6fdddf9e957d85a0d64f94e63ec90c7023a607",
    "pq8.cube.json": "27b7e791de26a230aeb8c06417b7aa29c3fa854867561ac63e0c602916aba074",
    "qm8.cube": "9c78789f0fa9a3240d0bb55c1672caac87338f6585b47fe7ffade9b9fb71979a",
    "qm8.cube.json": "1e54a71e9db8c4c1c0bb12773b4e36c96a776791bcbac5fad53c10f3c5a9b95b",
    "qmc8.cube": "26bf4bf75e54188d1bd705704f2788e7f21d15f8945d4353f59571c413f5b990",
    "qmc8.cube.json": "65466755016a27b38eeced4fef921a417e07f2117103c7657c533a0de2b4946a",
    "tri3.cube": "482b3269d158d4676e5577e8e7378e86c257edb934c61bfc898dadccd73c914b",
    "tri3.cube.json": "be6dde9f0480a4df930a828e682d67dcdd8c3dc292d10eb66843f3fe79ee9159",
    "w-e-c4.cube": "a58890f4b73854741b81f453602d7bfa33c38c328418b732d475c9d6bac2ff7d",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    """(exit code, stdout digest) per command key, plus file digests."""
    workdir = tmp_path_factory.mktemp("golden")
    got = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(workdir)
        for key, argv, _ in COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = main([*argv, "--threads", "1"])
            got[key] = (rc, _sha(out.getvalue().encode("utf-8")))
    files = {p.name: _sha(p.read_bytes()) for p in sorted(workdir.iterdir())}
    return got, files


@pytest.mark.parametrize("key,rc", [(key, rc) for key, _, rc in COMMANDS])
def test_golden_stdout(outcomes, key, rc):
    assert outcomes[0][key] == (rc, GOLDEN[key])


def test_golden_files(outcomes):
    assert outcomes[1] == FILES
