"""The exact artifacts, byte for byte.

Their SHA-256 digests are pinned, so that a change to the exact layer that
alters an artifact, by a value, a key, a witness that should not be there or
a float printed from another rounding, fails here.  Besides the verify and
induce reports, the orbit files of every kind and format (with non-default
starts and strip parameters), the analyze report and the broken-line CSV are
pinned, since they print and float every exact scalar they hold.  The digests
are the same under CPython 3.11, 3.12 and 3.13; a change that means to alter
an artifact updates them and says so.
"""

import hashlib
import json

import pytest

from nilflow.cli import main

DIGESTS = {
    "verify --seed 0": ("verify-report.json",
                        "dac1d3177be195b71af84adcc6e4911fc0b9f7399608c32638111a5e83db4e9d"),
    "verify --seed 1": ("verify-report.json",
                        "e373182cd5b5b2f0908d6463b4e2c8d4f06060c7ea9169b65b75de7e6d7a5ecf"),
    "induce": ("induce-report.json",
               "32b1213af5b09faf91d886a24d4323937f9ec6d0e2f97117528c987d988c1064"),
    # the report file of analyze is named in a config file only
    "analyze": ("analysis.json",
                "c41b207b9fdb5a4e99c5255a104176cbe49dc9db037db8b368447b973c9b7429"),
    "broken-line": ("broken-line.csv",
                    "3b3c724878bbf5b5c8827f0edf066b329ba68addf6d4397f800f8d5368d2cf2d"),
    "orbit --kind skew --iters 300 --format csv": (
        "orbit-skew.csv",
        "3e8a93d33548501dec9f8ec8c96a0c98aa12bc00959e06fa0b3eab668383b7b8"),
    "orbit --kind strip --iters 300 --format csv --s=-3/7 --theta=2/7": (
        "orbit-strip.csv",
        "c8c23166385aaaa2f107b58022a5c9d0d4d661e793f8219484a1c5bfbe5979a7"),
    "orbit --kind translation --iters 300 --format csv --start [1/3,2/7,-1/5]": (
        "orbit-translation.csv",
        "1327c371c3875635a7fd623de28d8aa6f7f88357671c39aeba9faf492c600b74"),
    "orbit --kind flow --iters 300 --format csv --start [1/3,2/7,-1/5] --step 2/5": (
        "orbit-flow.csv",
        "12918a0032f090c02462d3a8c3cbeecfb2e1debda31d73a30e8cc0fd257b4cf1"),
    "orbit --kind skew --iters 300 --format jsonl": (
        "orbit-skew.jsonl",
        "f7de4e382df0d2783330ef98276ee9a92a4ea37cdff6898ec8aeb824eaa65b33"),
    "orbit --kind strip --iters 300 --format jsonl --s=-3/7 --theta=2/7": (
        "orbit-strip.jsonl",
        "ed742c390781d4648aeb16a39ae37463aeb18368c1839d6abc3c351606136cf1"),
    "orbit --kind translation --iters 300 --format jsonl --start [1/3,2/7,-1/5]": (
        "orbit-translation.jsonl",
        "c2ba0621b54b30655a363c93bc90530ca534464fd53e515f16c0608198a2a6d7"),
    "orbit --kind flow --iters 300 --format jsonl --start [1/3,2/7,-1/5] --step 2/5": (
        "orbit-flow.jsonl",
        "3f827d3234bf1b2d7e3671479e2ba6f11b9bc047d1f1c8084001578177b5ad37"),
    # a start of mixed scalar types, whose first z prints as "4/5+0*l",
    # and a seed past 64 bits
    "orbit --kind translation --iters 300 --format jsonl --substitution a->aab;b->a"
    " --start [1/3+l,2/7,-1/5] --seed -12345678901234567890": (
        "orbit-translation.jsonl",
        "323f19dbe3476e92bfc82310cddf324a70cafcd3435c476e33df778560113c46"),
    # every kind and format at the default 10^4 iterates, where the
    # coefficients become multi-limb integers, and a flow CSV of a->aab;b->a
    "orbit --kind skew --format csv": (
        "orbit-skew.csv",
        "732b0c01dc8a622112b2ecccf012570f297b34b089e3d336b4ff850679d189d7"),
    "orbit --kind strip --format csv": (
        "orbit-strip.csv",
        "a7ee02714b7a0a68c343f2330abbad0b219bf0e29e830085689cb0813d037cdd"),
    "orbit --kind translation --format csv": (
        "orbit-translation.csv",
        "c4c9ed8eda3724a11200dc8ef24ff3a14dd04bb9cac99084c91e87a1e7e3e067"),
    "orbit --kind flow --format csv": (
        "orbit-flow.csv",
        "e6f3c8df2f389a67d71cbedc171913bd1ffd603b84021679409aafea25415eca"),
    "orbit --kind skew --format jsonl": (
        "orbit-skew.jsonl",
        "1a59e7b2d33bd7018c1ee40c3b157760d46c164c5a47014c15bcaeff89da8297"),
    "orbit --kind strip --format jsonl": (
        "orbit-strip.jsonl",
        "e1d4b764a6807e97bb18613a10b9ee6ba3fe5785ff3f376dfcdd70ca83ce2d25"),
    "orbit --kind translation --format jsonl": (
        "orbit-translation.jsonl",
        "762b877d83f6ca163bed365ac8bd2505333e54255f38112c8184e936d85466b3"),
    "orbit --kind flow --format jsonl": (
        "orbit-flow.jsonl",
        "070319a23fc875dc5e732f7e186dc276f05d38b1ea3024f01e5bfa027bd21eb3"),
    "orbit --kind flow --format csv --substitution a->aab;b->a": (
        "orbit-flow.csv",
        "f174873b7bdbb9f469b5bfaddb1e131d6b9cd0f4c76fd9dce309e6c637ab6369"),
}


@pytest.mark.parametrize("command", list(DIGESTS))
def test_report_bytes_are_pinned(tmp_path, capsys, command):
    name, digest = DIGESTS[command]
    argv = [*command.split(), "--out", str(tmp_path)]
    if command == "analyze":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"analysis_out": name}))
        argv += ["--config", str(config)]
    assert main(argv) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
