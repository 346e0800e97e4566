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
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_digest(command, capsys):
    assert cli.main(command.split()) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
