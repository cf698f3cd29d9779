"""Golden CLI corpus: the exact bytes of fixed invocations.

Each case runs `qverify.cli.main` in a temporary working directory and
hashes stdout plus every file named by --out or --transcript. Output
paths are relative, so the echoed command line does not depend on
where the test runs. A digest may change only with an intended change
to the output format or the random stream, never as a side effect of a
refactor.
"""

import hashlib

import pytest

import qverify.cli as cli
from qverify.cli import main

CASES = {
    "strategy-bell": ["strategy", "--bell"],
    "strategy-two-qubit-json": [
        "strategy", "--two-qubit", "--format", "json", "--theta", "pi/8",
    ],
    "strategy-product-epsilon": ["strategy", "--product-zero", "--epsilon", "0.05"],
    "strategy-generators-ghz3-json": [
        "strategy", "--stabilizer-generators", "--preset", "ghz3", "--format", "json",
    ],
    "samplecount-bell": ["samplecount", "--bell"],
    "samplecount-two-qubit-json": [
        "samplecount", "--two-qubit", "--theta", "0.6", "--epsilon", "0.05",
        "--format", "json",
    ],
    "samplecount-ghz12": ["samplecount", "--stabilizer-full", "--preset", "ghz12"],
    "figure-fig1": ["figure", "--which", "fig1", "--points", "9"],
    "figure-fig2-out-json": [
        "figure", "--which", "fig2", "--theta", "pi/8", "--points", "7",
        "--format", "json", "--out", "fig2.json",
    ],
    "figure-figS1": ["figure", "--which", "figS1", "--theta", "pi/8", "--points", "11"],
    "figure-figS2": ["figure", "--which", "figS2", "--theta", "0.6"],
    "landscape-json": [
        "landscape", "--theta", "pi/8", "--resolution", "80",
        "--refine-resolution", "320", "--format", "json",
    ],
    "simulate-transcript": [
        "simulate", "--two-qubit", "--theta", "pi/8", "--device", "worst-iid",
        "--epsilon", "0.1", "--n", "20", "--trials", "200", "--seed", "7",
        "--transcript", "runs.jsonl", "--record-labels",
    ],
    "simulate-honest-json": [
        "simulate", "--bell", "--device", "honest", "--n", "10", "--trials", "100",
        "--seed", "3", "--format", "json",
    ],
    "stabilizer-subset-json": [
        "stabilizer", "--preset", "ghz4", "--subset", "1,2,4", "--format", "json",
    ],
    "stabilizer-parity-check": ["stabilizer", "--preset", "cluster3", "--parity-check"],
    "stabilizer-inspect": ["stabilizer", "--preset", "ghz5"],
}

GOLDEN = {
    "figure-fig1": {
        "stdout": "e12c51aa8f444e791bb19da1b7921d2a17469911ab7e63c51a38c1ca5896c03e",
    },
    "figure-fig2-out-json": {
        "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "--out": "2412150a466f09d306bc0df414facac6a9c8c1a902bbe1d7575eaae53d63edc0",
    },
    "figure-figS1": {
        "stdout": "e221b6b48682927ae67593f1118d45ffa28a4846169632575dfcdb29a97c6e20",
    },
    "figure-figS2": {
        "stdout": "d544b7fc99d3cd6d37969542ea5fcd9aa5c496ccbc8c88ceb25172a3fcc99250",
    },
    "landscape-json": {
        "stdout": "75b747c738d65e34770fc7ae69a16aaf518d6995a257c8f32ec29e1ea6a0256d",
    },
    "samplecount-bell": {
        "stdout": "95ff076c16b58fa86a8860401f879b7fc64dbc50cf91452b2355734a508f4cbb",
    },
    "samplecount-ghz12": {
        "stdout": "7c929d3e6e213c9e2cc84110f222ec8dfc4846ebe177aaafa69c0cbbe845a136",
    },
    "samplecount-two-qubit-json": {
        "stdout": "ef3482282c35b9618954c578b876d950d29a3864580279902351c12092c89c8c",
    },
    "simulate-honest-json": {
        "stdout": "5bd87fc71b71c8ab4d548e568b0871cc5084078ae572b3bb27ceb391f321c73c",
    },
    "simulate-transcript": {
        "stdout": "a52e22d31bb66d416d5c792c3ad42b7d18674cab7834a42e02a8c2e52d261070",
        "--transcript": "b221b3e2fe69724fbb3aff1cd508a3064c802aea6ae961e0e6ade296214744d1",
    },
    "stabilizer-inspect": {
        "stdout": "96fc7df9466fba5af33666f1b79b36081699536df64a0edb3f1276cfa81b2cbe",
    },
    "stabilizer-parity-check": {
        "stdout": "2190fa5c0b08c947ee3a3a67a0163da3f2e80655145eed2584944d6ebbbe08a2",
    },
    "stabilizer-subset-json": {
        "stdout": "f40d6fbbce9b67a5bba6aea35b5066313124ce19a6e553704a5b7cc8f19a88b2",
    },
    "strategy-bell": {
        "stdout": "36830881d1decb40032be0633434371495810dbf1b6447b95394f4ed1c50143b",
    },
    "strategy-generators-ghz3-json": {
        "stdout": "5d688133eea5de3baf51cab7e852ae6f997b710c9c058f390456c5706b2338f1",
    },
    "strategy-product-epsilon": {
        "stdout": "7008140dd2ec103e4871ccedb4c0e4b5a13d2294adb083dc62d730e0286469a6",
    },
    "strategy-two-qubit-json": {
        "stdout": "0baf79e1b0d6faa72eb2de9fe8348c573ad2a39856cf99856310edea8d3ed6b6",
    },
}


def _digests(argv, capsys):
    capsys.readouterr()
    assert main(argv) == 0
    out = {"stdout": capsys.readouterr().out.encode()}
    for flag in ("--out", "--transcript"):
        if flag in argv:
            with open(argv[argv.index(flag) + 1], "rb") as fh:
                out[flag] = fh.read()
    return {key: hashlib.sha256(data).hexdigest() for key, data in out.items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _digests(CASES[name], capsys) == GOLDEN[name]


def test_corpus_covers_every_subcommand():
    assert {argv[0] for argv in CASES.values()} == {
        "strategy", "samplecount", "figure", "simulate", "landscape", "stabilizer",
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_rendered_values_are_plain_python_scalars(name, tmp_path, monkeypatch, capsys):
    # type, not isinstance: np.float64 is a float subclass, and CSV cells
    # would print it as np.float64(...)
    docs = []
    render = cli._render

    def spy(cfg, doc):
        docs.append(doc)
        return render(cfg, doc)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_render", spy)
    assert main(CASES[name]) == 0
    (doc,) = docs
    values = [v for _, v in doc.get("record", ())]
    values += [v for row in doc.get("rows", ()) for v in row]
    assert values
    bad = {type(v) for v in values} - {str, bool, int, float, type(None)}
    assert not bad, (name, bad)
