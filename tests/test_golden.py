"""Golden stdout: SHA-256 digests of the output of fixed CLI invocations.

Output is deterministic byte for byte, so a refactoring must leave every
digest as it is; a change that alters output on purpose updates the
digests it alters and says why.  Each command takes about a second at most.
"""

import hashlib
import json

import pytest

from floercas import cli
from floercas.donaldson import product_series

GOLDEN = {
    # every claim reads levels r <= g + 2 or genera <= g; genus 4 is the
    # first that the caps they once had would cut, and genus 5 the first past
    # the dense wedge kernel's cap on primitive-parts
    "check --max-genus 1":
        "b1831785efa107d9c77521f02c4468ee1b4b772b5bbe7adc800c21c9aa001c55",
    "check --max-genus 2":
        "d95f654e955bdfb83fae3dd7be6abe5fd40cbec5c050f491da9dc3317c5472b9",
    "check --max-genus 3":
        "9560dec71d4e8316b4aae66e81f24ef5285e5615db1ed21c2375a0e5e64e396a",
    "check --max-genus 4":
        "1d416bbdc04038de1af79482c8297bae82173e4daf72d91293d98063ed6d47d2",
    "check --max-genus 5":
        "43136de17ec9404c1dfc795721cfe2f0e3cb3c1d7d7591a5b52b588d375ad3bb",
    "check --max-genus 6":
        "5c5fd17c2a77d1029189e67f589573fd51f910247bca22c92e08c2bdb39ef97a",
    "check --max-genus 9":
        "af21cc0225ca3ac8b356aef466d0b5340c6a1c71feb9db2f3c4dc87b3198044a",
    # the largest accepted genus
    "check --max-genus 10":
        "651c1af275b0187d0edea2177156c372fd49df491c607e2c00ffe5c27f45ffc0",
    # the spectra of F_r for every r <= 10, and of F_9 at the largest eigen level
    "ring --genus 10 --format json":
        "cd8596f8901a16132209a6f9fa6d614f09405fb5f7cace39821e9ea220295604",
    "eigen --object F --r 9 --format json":
        "457b09410504778f129c126866622551f823269d0ee97c5fb77ad2119192be6e",
    "ring --genus 6 --format json":
        "970e9acc754a6429ec9f7332f06512506c4816110aa345c6393ecad9e26bd8c7",
    "ring --genus 8 --format json":
        "4066077ff78028e6d33723cd76efc105c48fa7747ae1ca0e7e97aa250259d0d8",
    "ring --genus 5 --format json":
        "bdc53d92fa2b6bcfca77b168060e6f6377609d81f1b336a01e6de85389b9d948",
    "ring --genus 4":
        "684d326b3d943804ce0220e9492da887f380fbbb832b20b5b107dd45b27cce0a",
    # the presentation-g7 workload, the level-10 bases and an Fbar spectrum
    # pin the Groebner engine beyond the sizes above
    "ring --genus 7 --invariant-only --format json":
        "241ac889901ae9b9cb4004d358f94d19a788f92a072b0ff38b13c54cee811cb0",
    "ring --genus 10 --invariant-only --format json":
        "0209b8aeab460247339d42a89ba9acd4f05f055d4ce6b8baf90a9a8528b9aa8d",
    "eigen --object Fbar --r 8 --format json":
        "7aa5b8c26a5aa2728163859a9e1b836a324c0faac5741754fd8d4f775757be86",
    "eigen --object K --r 4 --format json":
        "a899d62e23bbd0af80851870c227548193e86b15c9229f74b4a5ac5133875656",
    # torsion blocks, the level blocks of F, below and at the largest eigen level
    "eigen --object K --r 7 --format json":
        "9c8f38d301cd7d54d105b47eea585234ba4e5fb593d45b4904749c7e695b18d0",
    "eigen --object K --r 16 --format json":
        "da2bc043705ed32e5c13548891f38a367290f24aa7c1b813a8223248e4b315ae",
    "eigen --object filtration --r 4":
        "279598fa9b015d90ec705163e9dc7ea6542e87737852c7a330ec49bf008b7e95",
    "relations --flavor R --r 6":
        "5981e262562e223b8b83dfeabb2de3d160880e16df7a2e978167111790f3f0c2",
    # the largest accepted level, whose coefficients reach hundreds of digits
    "relations --flavor R --r 50 --format json":
        "3c93a390b54293290e8d46bf868a71b86a8ff8edd88412a3b796f7dfb60eef7c",
    "relations --flavor q --r 50":
        "142d0679fe00b6680a335405e1badf0a2760b42307490032730b4e310a43788d",
    "relations --flavor q --r 5 --format json":
        "d5a133237aea13ed6cfe45432a089da516b0779a195634fea4ab1a6111cf2561",
    "relations --flavor Rbar --r 5 --format json":
        "783f88d0388243a4802739ab0b10199a9c2ae805405e087c4141ac95e4001cc3",
    "rhff --genus 3 --n 2 --format json":
        "f8b6c8c18de5ac47cccd19d9de849e7b3d80976d4740162112c77025b74bb88b",
    "donaldson product --g 2 --h 3 --format json":
        "a0c52bec4afc11807de0dca9b2306fff26f3e1a4430100967525a39dfafcd7b8",
    "rhff --genus 3 --n 2":
        "ea8dd88877d201202021fc9b22481b17014d6359131e915546b28504ffefa2ca",
    "effective --genus 3":
        "f7866b194cd6e9e5a81b9f64acf05e4862ec5de446e909151fb6e06622e35fbf",
    "delta --genus 4":
        "3ecf374e0a5c5c9f9eb9aca2ba24b88dfc4f22564e5fa51b44e770d4ed718ac8",
    "mu --genus 3 --i 1 --class torus:4:2":
        "f75fde09ab78bafea38dc67ff4c3d161f16fdd1a536d7353a6218eb2dca5f88c",
    "mu --genus 3 --i -2 --class pt:2":
        "3ac302d61fec8befc75b7de631ad676421fa4423367ca6fa9696da262859f60d",
    "eigen --object K --r 3":
        "d0e1e5072031482892ed6af426cd1931851a8e0671d60f4c1dcadba710056326",
    "eigen --object F --r 3":
        "a20e0ca24a4adda880411e994356e830b256fb6eaece12fb519f30525d42d0ff",
    "donaldson product --g 2 --h 3":
        "ea13d9491115c09db9886b092f26e6a41eca714c27e00a756818ea9cd021d657",
    "donaldson order --genus 3 --b1-zero":
        "d6f91512b84d7a9b4020b7ac58c37445340372688a5dda021b474a3a84b8e78f",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_digest(command, capsys):
    assert cli.main(command.split()) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]


#: a series file as a user might write it: a class listed twice, a zero
#: coefficient and classes out of order, which the series record normalizes
UNNORMALIZED_SERIES = {
    "basis": ["E", "F"],
    "Q": [[0, 1], [1, 0]],
    "terms": [{"a": "1/2", "K": [1, 0]}, {"a": "-3", "K": [-1, 2]},
              {"a": "0", "K": [3, 3]}, {"a": "1/2", "K": [1, 0]}],
    "simple_type": False,
}

#: sigma_a, sigma_b, basis, Q and splits of a sum of two products of surfaces
#: along their common factor E
PRODUCT_SUM_PAIRING = {
    "sigma_a": [1, 0],
    "sigma_b": [1, 0],
    "basis": ["E", "F"],
    "Q": [[0, 1], [1, 0]],
    "splits": [
        {"d1": [1, 0], "d2": [0, 0], "sigma_dot": 0},
        {"d1": [0, 1], "d2": [0, 1], "sigma_dot": 1},
    ],
}

# (donaldson subcommand with its options, file arguments) -> (exit code,
# {format: digest of the stdout}); {pNM} stands for a file of
# product_series(N, M), {raw} for one of UNNORMALIZED_SERIES
SERIES_GOLDEN = {
    "eval --series {p23} --class 1,1 --order 12":
        (0, {"json": "3fd70c73c818f8340ba253e037df8f257ac6e2e1933067687ed26267b2c93ef0"}),
    "eval --series {p13} --class 2,-1 --order 16":
        (0, {"json": "f358908acf90e52cd8692ca7c35b1d2bec74efa1f97b295ed01daa50b44cdff1"}),
    "eval --series {p34} --class 0,3 --order 9":
        (0, {"json": "7dba0a0ba9c6034021f7dcbbc4a7966af29d22d752b7601a75f92f9bb78e75ae"}),
    "eval --series {raw} --class 1,1 --order 7":
        (0, {"json": "389461175104b8f46df20e665429603020bd89a3bb50cbce08444ecd15093f6d"}),
    # Q(D) = -4, so the exp(Q(D) t^2/2) factor is not 1
    "eval --series {p13} --class 2,-1 --order 100":
        (0, {"json": "ddab3fa7e1e5ee065c07fadff1f593f5d1b5b34a5b7c73999a001358ad22204d"}),
    "fibersum --a {p21} --b {p22} --genus 2 --pairing {pairing}":
        (0, {"json": "a0c52bec4afc11807de0dca9b2306fff26f3e1a4430100967525a39dfafcd7b8"}),
    "fibersum --a {p12} --b {p13} --genus 1 --pairing {pairing}":
        (0, {"json": "5f405b743a2233c0a5d798c077e01155ec73edebf8965e41dd28849640ad81c4"}),
    # {p110} and {p112} are the products of a torus with surfaces of genus 10 and 12
    "fibersum --a {p110} --b {p112} --genus 1 --pairing {pairing}":
        (0, {"json": "e2a0bbe88a907567d0cb8eeba75c3b5b9c299a3c4b8173176e9299fee3a98257"}),
    # the first golden past genus 2 on the gluing path
    "fibersum --a {p31} --b {p32} --genus 3 --pairing {pairing}":
        (0, {"json": "922ba7b509d5b952827b47cb724cba6da07f179cecd255357fab9ba307ebb42d"}),
    # a product passes the congruence along its genus-2 factor; the middle
    # classes of a torus-factor product fail it along the genus-3 factor
    "congruence --series {p23} --sigma 1,0 --genus 2":
        (0, {"text": "fef5f80ce468557394ecdcc029aab2ce4c7c2eb750f055edd2bcc7445e2160c2",
             "json": "7a9fa3e4d72c4b0952d9be9b46af2c3dba1f93a28fe9251f7ed154a5a10e3fa7"}),
    "congruence --series {p13} --sigma 0,1 --genus 3":
        (2, {"text": "85033c7b165a61e236f5f7eab5f347ae59074a59b65e9d3bd763f5ac9e371a6b",
             "json": "c0e5100170bdf903992137c90a59bf19016d4cbd3ef2668b6de385ec4fa90621"}),
}


@pytest.mark.parametrize("command", sorted(SERIES_GOLDEN))
def test_series_stdout_digest(command, capsys, tmp_path):
    files = {"raw": UNNORMALIZED_SERIES}
    for g, h in ((1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 4), (1, 10), (1, 12)):
        files[f"p{g}{h}"] = product_series(g, h).to_json()
    names = {}
    for name, obj in files.items():
        names[name] = tmp_path / f"{name}.json"
        names[name].write_text(json.dumps(obj))
    argv = [arg.format(**names, pairing=json.dumps(PRODUCT_SUM_PAIRING))
            for arg in command.split()]
    code, digests = SERIES_GOLDEN[command]
    for fmt, digest in digests.items():
        assert cli.main(["donaldson", *argv, "--format", fmt]) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt
