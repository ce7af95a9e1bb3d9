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
                        "d7e6d94f458596dae12a18faea9271b0824d0543dbbbe3d5b1ef1c9f3975dad2"),
    "verify --seed 1": ("verify-report.json",
                        "1f150448725e2f1e2b47ef63b8e254b23989de500242e38c899d089f9eac5965"),
    "verify --seed 2": ("verify-report.json",
                        "da5114779a158c7aab36e3b2ebe8cefa6783180513887dc76d54d2cde9472fcc"),
    "induce": ("induce-report.json",
               "a93d25256a79d1b9e0b3336e21bb36e90b9237e15cede9c7cabef10317e0cb91"),
    # a negative-trace substitution, checked against the inverse return map;
    # the report holds no value of its field, so its bytes are the default's
    "induce --substitution a->AB;b->A": (
        "induce-report.json",
        "a93d25256a79d1b9e0b3336e21bb36e90b9237e15cede9c7cabef10317e0cb91"),
    # the report file of analyze is named in a config file only
    "analyze": ("analysis.json",
                "e41088921d623f754568038048e9111298d3079ee6cd4698beed183f098fd64b"),
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
        "62c99011c8094297f8e0afc59d1082bf61d8037c81051e670fae85df11976d92"),
    "orbit --kind strip --iters 300 --format jsonl --s=-3/7 --theta=2/7": (
        "orbit-strip.jsonl",
        "c6b8ef6545e1231c36e14907d348651520e2662055ae66afae4439fb81a978ee"),
    "orbit --kind translation --iters 300 --format jsonl --start [1/3,2/7,-1/5]": (
        "orbit-translation.jsonl",
        "c2ba0621b54b30655a363c93bc90530ca534464fd53e515f16c0608198a2a6d7"),
    "orbit --kind flow --iters 300 --format jsonl --start [1/3,2/7,-1/5] --step 2/5": (
        "orbit-flow.jsonl",
        "ab1e300ee4a508a63dc078a372df7c68488151877a6497ebb6eccd1afe8fcb86"),
    # a start of mixed scalar types, whose first z prints as "4/5",
    # and a seed past 64 bits
    "orbit --kind translation --iters 300 --format jsonl --substitution a->aab;b->a"
    " --start [1/3+l,2/7,-1/5] --seed -12345678901234567890": (
        "orbit-translation.jsonl",
        "6cd8bf2d467ec475b0c57db22bdcddb490c7572589f54909091b6193fdfc61bf"),
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
        "a3dc1b8f4d8f4edcd6d87eb5f09e44741933d1b6a3d22650ab7fcf6ebd9bed39"),
    "orbit --kind strip --format jsonl": (
        "orbit-strip.jsonl",
        "6e051bd4f2729e34a48150fa2b6caae06a31d076a1adbd4da2b83a80e15b5728"),
    "orbit --kind translation --format jsonl": (
        "orbit-translation.jsonl",
        "762b877d83f6ca163bed365ac8bd2505333e54255f38112c8184e936d85466b3"),
    "orbit --kind flow --format jsonl": (
        "orbit-flow.jsonl",
        "ffb5002f7ec981aee5a4547081fe51b7ca0b8b346cac93856b72f6866f68155b"),
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
