"""Golden CLI corpus: the exact bytes of fixed invocations.

Each case runs `qverify.cli.main` in a temporary working directory and
hashes stdout plus every file named by --out or --transcript. Output
paths are relative, so the echoed command line does not depend on
where the test runs. A digest may change only with an intended change
to the output format, the printed values or the random stream, never as
a side effect of a refactor; such a change moves cli.OUTPUT_VERSION,
which every output prints, and records the new digests under it.
"""

import hashlib
import json

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

# Digests by OUTPUT_VERSION. Version 2 added the output-version header
# line, printed exact syndrome-count stabilizer values (subset q and
# fooling acceptance 1.0, inspect trace 16.0) and dropped fig2's
# n_fid_ref column. Version 3 picks the worst-case state by a rule that
# reads only Omega (adversary.top_orthogonal_eigenvector), which changes
# the simulate-transcript stdout and transcript; every other case moves
# only in its version line or field. Version 4 reads the Bell, product
# and two-qubit q, trace and gap of the figure tables and of the
# strategy and samplecount builder flags from their closed forms
# (samplecount.family_metrics), each correctly rounded from the float
# sin 2theta, in place of the dense eigenproblem. Three bodies change:
# figure-fig1 (n_asymptotic of 5 of its 9 rows, which now also agree
# between theta and pi/2 - theta), strategy-two-qubit-json (q, trace and
# second_eigenvalue_gap, each by one or two ulps) and
# samplecount-two-qubit-json (q, delta_eps and n_asymptotic); every
# other case moves only in its version line or field. Version 5 writes
# a stabilizer strategy's JSON as its kind, generator labels and element
# indices, with no dense target or projectors: of the bodies only
# strategy-generators-ghz3-json changes (its "strategy" object); every
# other case moves only in its version line or field. A new version
# needs a new digest set here.
GOLDEN = {
    2: {
        "figure-fig1": {
            "stdout": "96b5e9eb1965ac34da289cc28cb8549cf9b44bcaa9a9fc84ca4e2d3f68c3593e",
        },
        "figure-fig2-out-json": {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "--out": "db84f8f69fc8dc2b6cceb83d22b441c67b1f2453152a3fbcc9af1e625c269dd6",
        },
        "figure-figS1": {
            "stdout": "b4db017075aa1775ce5fb99d646c68ed43084e5883acf979c58d04fd9d22ab00",
        },
        "figure-figS2": {
            "stdout": "2a1205f1077085d45128d53a76ca7ff8a8ad57cbe4289dc97ba49fd3d8829ab6",
        },
        "landscape-json": {
            "stdout": "90dae75714a71f4857cdd90510cdc6c7d4038e5e7160df6fb80ecacfae0409f6",
        },
        "samplecount-bell": {
            "stdout": "1709f093ae1676cbb8c7c83eb4a480f75e5095189b1e68b113e83c5fe378af58",
        },
        "samplecount-ghz12": {
            "stdout": "c19e03d3f67f705b2bf79cf25a82ddbb1432aeb612c0695db8c3c0fbf041e3fb",
        },
        "samplecount-two-qubit-json": {
            "stdout": "dc93123d3ddd36f40ab47e60cfeccc6bac780ba421b912dcc9f6a7b3ad7db071",
        },
        "simulate-honest-json": {
            "stdout": "a0052dec0a7d57d3f1d5920736f733a0899e298bda891bea7da7c005138023a8",
        },
        "simulate-transcript": {
            "stdout": "afd3b26d7d1d000cffd28b8e09a34e7b698398343cf8b5fd3900a976d0ce43c0",
            # JSONL carries no header; unchanged since version 1
            "--transcript": "b221b3e2fe69724fbb3aff1cd508a3064c802aea6ae961e0e6ade296214744d1",
        },
        "stabilizer-inspect": {
            "stdout": "7f5262dec81b5d4730469a0f4792f392058e9f6539600be78a044bf37159c94f",
        },
        "stabilizer-parity-check": {
            "stdout": "cd707172c4d0940fa3697afe6ffada5e37a30a5a1041bd5cd7ae5b9e4bea8397",
        },
        "stabilizer-subset-json": {
            "stdout": "3fb7a27ab8d47fa396ed20db54ecb6e4cd29861659037f25e66bd12b69b3bfb2",
        },
        "strategy-bell": {
            "stdout": "5f3c97e01a0533d5f6fcf2f20772cabccb04caf4d898def09642ac2cd4b5cf1a",
        },
        "strategy-generators-ghz3-json": {
            "stdout": "f03032712408701df88b0629cef4394f4a961678ec293fe6cb1efcb4427d4332",
        },
        "strategy-product-epsilon": {
            "stdout": "26cb5436d3670539140f7230c494ef335e14ab02e51c9dcc7c23d989ce58e813",
        },
        "strategy-two-qubit-json": {
            "stdout": "a7810b10be7c243a0565703994a0d274dfc227b3b0d5f93c1301ded00e7c06e8",
        },
    },
    3: {
        "figure-fig1": {
            "stdout": "8773690e38ed21394b762619754ba8a79f9debd35a43fde3a9ead10d621d5952",
        },
        "figure-fig2-out-json": {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "--out": "71bd90456959c2fef9e4824d89dd8adfe0068d3183d8e348ed974ff5fc771e3c",
        },
        "figure-figS1": {
            "stdout": "871c6a5f21b4884ffdf618243e467086dd88de1857545e8da6222db69a808bc6",
        },
        "figure-figS2": {
            "stdout": "cf8346f4815fc6d8f7f5f10b76dea8febd91d6e138f5bbb20e7fb9d97e3ca637",
        },
        "landscape-json": {
            "stdout": "8fe7cd5a4bf6d409ad2ac31e40867334b08ff2c83b7209d43f5c8bad89e9bbc6",
        },
        "samplecount-bell": {
            "stdout": "b0995f4ec20b55fcfa5e90c5b59b72c7b85a723e4a70b86e57d8d721d4a84a1a",
        },
        "samplecount-ghz12": {
            "stdout": "ab88f136411b0ddde050126ad52ad23e4bf4b8dd3cc2ed92039b158ad9860595",
        },
        "samplecount-two-qubit-json": {
            "stdout": "99628d0be04bff4bfca6f05bb76bfac0252d715469056e3b8f03318b8681fe27",
        },
        "simulate-honest-json": {
            "stdout": "ad72e2659513eb26c6b2829ef00d7f9feac4038f85da492d6db775f68d6a7e18",
        },
        "simulate-transcript": {
            "stdout": "4b7c0323da7cf4094569d039af5bc3bab6f70330ca626b5a722e4ee7885563eb",
            # JSONL carries no header; moved by the worst-case state rule
            "--transcript": "1490192bc5f73100f49ab4cba46db6fbae60d5dc35bfb2dd9418a6d499d045a4",
        },
        "stabilizer-inspect": {
            "stdout": "fd1d776881be18f5187bcf351978562bc4188b94b5fc26d20978f35f490ec2f6",
        },
        "stabilizer-parity-check": {
            "stdout": "c0f8e223bd6d7d1f61bb3d4f6d04908ff090797c6c3f98df10041c04af325ae5",
        },
        "stabilizer-subset-json": {
            "stdout": "c5cbd3652c4991f3e0c7644b45f88d70968b1088133983dcd0d86ebc35b9a508",
        },
        "strategy-bell": {
            "stdout": "1c9876b3c50767a2ed5c6ab0327ba4f0d3067d0ccb71f3f9801de50aa564c2de",
        },
        "strategy-generators-ghz3-json": {
            "stdout": "0a70e681eb4f12cf3bdca8216b052594d405b8924c46a10264de28039974981b",
        },
        "strategy-product-epsilon": {
            "stdout": "6e3f945101f4c14c9f2e2cd6be94db2630aa9dfed5bcfe6439d2cbb283335ffe",
        },
        "strategy-two-qubit-json": {
            "stdout": "5830e9c8c7201143a9e8f1167fdcde51b5b3a6095b5e9c79aaa12cd4c248b7bf",
        },
    },
    4: {
        "figure-fig1": {
            "stdout": "2e0fa3e1161035e98b35a329f6821389bd2d1476899b190ea9c94c927e8bc05d",
        },
        "figure-fig2-out-json": {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "--out": "b8a299392f9dddbf5785d0d3d3291a72c90dc7784e72577ffe1d850934910d56",
        },
        "figure-figS1": {
            "stdout": "eab98b85b770a81f7b0763d10460b4da33b99fdcf3333c5801bd77d523c05806",
        },
        "figure-figS2": {
            "stdout": "c8169d48ef953bc196aa49d25e4917a9cd3ea4b31c78769396a79508caf24a26",
        },
        "landscape-json": {
            "stdout": "a2f6b8d1708339e9a1d8e108efd4df4e44773935cceb47170e9d07b70cb85ade",
        },
        "samplecount-bell": {
            "stdout": "5c2193ed603c91b1d6c96511691a8d6600529dd65befd7b41b4849ab7ddcb0a4",
        },
        "samplecount-ghz12": {
            "stdout": "f2ec1e97e8854292a8e18bbd4f06391382c6a85999800cd10083d9cb0aa8f854",
        },
        "samplecount-two-qubit-json": {
            "stdout": "e4dcf51c5da139a828aa8b6587acd8f10e818530378a6aba69e886604d6d3312",
        },
        "simulate-honest-json": {
            "stdout": "ef910116230ccacaf8e6d36a1430e98e16513bcec7898234b2a281df7e50542d",
        },
        "simulate-transcript": {
            "stdout": "aedd612baf069d19f525fe2da5805234099b3839d43d5997ce5ed4a2be65252a",
            # JSONL carries no header; unchanged since version 3
            "--transcript": "1490192bc5f73100f49ab4cba46db6fbae60d5dc35bfb2dd9418a6d499d045a4",
        },
        "stabilizer-inspect": {
            "stdout": "00995ea11f2399741e11e9e10d0dcf230728367696c2c58b8aef2b81232190fd",
        },
        "stabilizer-parity-check": {
            "stdout": "1ba8bb72967696816267b1204bec4218477e97306e0397ac395cff9f1ff1c78c",
        },
        "stabilizer-subset-json": {
            "stdout": "de1b151f5f252672f33928418e0dc39a12ec1877820406daee10ce2cafc179ef",
        },
        "strategy-bell": {
            "stdout": "2f186a44f22ce8da865e0a7ead12e785e4ca20bfdf3b40a23674bb8a86b0053f",
        },
        "strategy-generators-ghz3-json": {
            "stdout": "c8ed6e5c10c064e52d71e4d6d66ad163698a363500f1ffe80604838176a1580a",
        },
        "strategy-product-epsilon": {
            "stdout": "ea34b05e07106421714c4ebe62a0583ace260e9b1937e2ebd0093ff5465d3092",
        },
        "strategy-two-qubit-json": {
            "stdout": "5592831777ad6d57b00671900d1143a2d3442e03eab497ccc5d8705ef1ccd7d6",
        },
    },
    5: {
        "figure-fig1": {
            "stdout": "b3b1fc5e0dc05798c09fb5fadf84f925fd01cddbc918cfc67affa9a20bb40212",
        },
        "figure-fig2-out-json": {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "--out": "8f8e6c65cdc850973db20f25ca5151e1967857ef5935e41f69e2d8f33dc5d7cf",
        },
        "figure-figS1": {
            "stdout": "4f8f65d42e6d9acc02b3a10391bd25efa59a8244ac44700a8819659ac5cdb524",
        },
        "figure-figS2": {
            "stdout": "fbfe51aa7d1221eefc44b23ec9087a480bdc5b57a01b35f6bb7afb95d438da45",
        },
        "landscape-json": {
            "stdout": "a6fca6730488602f8bebd9124b5163572f4b49ce37e87bc0857da399fe10f6ae",
        },
        "samplecount-bell": {
            "stdout": "91dcb8119a1f90ebf63583846b95ee286435a2fcadaff6eacfb71385535bda5a",
        },
        "samplecount-ghz12": {
            "stdout": "7ebed3b2f30dcbe7219768408b6d3f08dc2db1a3d36f2f640080e70496ee708d",
        },
        "samplecount-two-qubit-json": {
            "stdout": "17e6732798a996511d0b89588c193bbd734d08b682a31caba059b930fbee4ca6",
        },
        "simulate-honest-json": {
            "stdout": "8649793443b674e1759cce0cf1bb01505049928ae98e818f4e9925d99c0d3d0a",
        },
        "simulate-transcript": {
            "stdout": "d9959affd606e3bb1dbc3d578cb9c9e15497e731eb2cc25b1be170eb57f77644",
            "--transcript": "1490192bc5f73100f49ab4cba46db6fbae60d5dc35bfb2dd9418a6d499d045a4",
        },
        "stabilizer-inspect": {
            "stdout": "de71890e66ff88782d4249c03082a98bc9eaf5c336a9f21c767e0ccf40c10622",
        },
        "stabilizer-parity-check": {
            "stdout": "a6787dda058c716eac91bd44614df0e3a95b121b09c00408eb0eb7460ee97559",
        },
        "stabilizer-subset-json": {
            "stdout": "dffd7cc34b290b43553b348fb8e898a688d49072b309624234aeae1ed5590953",
        },
        "strategy-bell": {
            "stdout": "e75480fbc04951e4b87646cf5381409b4e2930faae3dc5b844f2305166887ec0",
        },
        "strategy-generators-ghz3-json": {
            "stdout": "c899ca643a218711cefe2a59003d2b1d8f0f5718b0385353f40713d2ad10cd88",
        },
        "strategy-product-epsilon": {
            "stdout": "ac2386c5ec7739db8612cd863b1c0ab8ab5837b3458069126fce6619b39fc86a",
        },
        "strategy-two-qubit-json": {
            "stdout": "81c77bee73592229306a55577642f7535a1b6d647402411edffe14c95e012ade",
        },
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
    assert _digests(CASES[name], capsys) == GOLDEN[cli.OUTPUT_VERSION][name]


def test_digests_exist_for_the_output_version():
    # moving OUTPUT_VERSION without recording its digests fails here
    assert set(GOLDEN[cli.OUTPUT_VERSION]) == set(CASES)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_output_declares_its_version(fmt, capsys):
    assert main(["strategy", "--bell", "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "csv":
        assert f"# output-version: {cli.OUTPUT_VERSION}\n" in out
    else:
        metadata = json.loads(out)["metadata"]
        assert metadata["output-version"] == str(cli.OUTPUT_VERSION)


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
