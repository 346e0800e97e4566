"""Golden stdout: SHA-256 digests of the output of fixed CLI invocations.

Output is deterministic byte for byte, so a refactoring must leave every
digest as it is; a change that alters output on purpose updates the
digests it alters and says why.  Each command takes well under a second.
"""

import hashlib

import pytest

from floercas import cli

GOLDEN = {
    "check --max-genus 2":
        "99121b126c4bc52ade9697b6520b966af16ba0db8b0f98c0c883522cdd9d68e3",
    "ring --genus 5 --format json":
        "bdc53d92fa2b6bcfca77b168060e6f6377609d81f1b336a01e6de85389b9d948",
    "ring --genus 4":
        "684d326b3d943804ce0220e9492da887f380fbbb832b20b5b107dd45b27cce0a",
    "eigen --object K --r 4 --format json":
        "a899d62e23bbd0af80851870c227548193e86b15c9229f74b4a5ac5133875656",
    "eigen --object filtration --r 4":
        "279598fa9b015d90ec705163e9dc7ea6542e87737852c7a330ec49bf008b7e95",
    "relations --flavor R --r 6":
        "5981e262562e223b8b83dfeabb2de3d160880e16df7a2e978167111790f3f0c2",
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
