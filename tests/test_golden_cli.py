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
    "samplecount-tie": [
        "samplecount", "--product-zero", "--epsilon", "0.5", "--delta", "1.862645149230957e-09",
    ],
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
    "simulate-ghz12": [
        "simulate", "--stabilizer-full", "--preset", "ghz12", "--device", "worst-iid",
        "--epsilon", "0.1", "--n", "20", "--trials", "200", "--seed", "7",
    ],
    "simulate-cluster12-generators": [
        "simulate", "--stabilizer-generators", "--preset", "cluster12", "--device",
        "worst-iid", "--epsilon", "0.1", "--n", "20", "--trials", "200", "--seed", "7",
    ],
    "simulate-ghz4-generators": [
        "simulate", "--stabilizer-generators", "--preset", "ghz4", "--device", "worst-iid",
        "--epsilon", "0.1", "--n", "50", "--trials", "500", "--seed", "11",
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
# other case moves only in its version line or field. Version 6 drops
# the option of a second, strict invariant pass, and with it the header
# line (in JSON, the metadata key) that named the pass's profile: every
# case changes only in that line or key and its version line or field,
# and the simulate-transcript JSONL, which has no header, keeps its
# digest. Version 7 builds a stabilizer strategy's worst case and plan
# with no 2^N x 2^N array, so simulate runs above 6 qubits, and adds the
# simulate-ghz12 case; every other case moves only in its version line
# or field. The simulate-cluster12-generators case (the generators
# scheme's worst case, whose R is not 0) joined version 7 later with the
# digest of the output it already had, and so did the
# simulate-ghz4-generators case (cumulative weights 1/4, 1/2, 3/4, 1, each
# on an edge of the sampler's guide table). Version 8 decides each copy
# count exactly at a tie (samplecount.exact_count) and adds the
# samplecount-tie case, (1/2)**29 = delta, where version 7 printed one copy
# too many in n_exact and n_chernoff_stein; every other case moves only in
# its version line or field. Version 9 drops rows that repeat another
# route's value: samplecount's regime and n_chernoff_stein, which for a
# strategy (p0 = 1) always read the linear regime and n_exact, and the
# stabilizer summary's num_generators, num_elements and is_maximal, which
# read N, 2^N and true for every group, as every group is maximal. The
# four samplecount bodies and stabilizer-inspect change; every other case
# moves only in its version line or field, and both JSONL transcripts keep
# their digests. Version 10 reads a stabilizer strategy's pass probabilities
# in the group's local-Clifford frame, whose sums run in another order than
# the element-at-a-time loop's: simulate-cluster12-generators changes in the
# last digits of predicted_acceptance (0.8458908104138062 became
# 0.8458908104137949); every other case moves only in its version line or
# field, and both JSONL transcripts keep their digests. A new version needs
# a new digest set here.
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
    6: {
        "figure-fig1": {
            "stdout": "1fba65436b7bc6f663dcba0c0974603608aeaf8f42fa3a42eaf9104f8f9daece",
        },
        "figure-fig2-out-json": {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "--out": "8164a9b7fa6a1e68b0f8f07232100ccf9aecac50587d24a66b35e768e20f471d",
        },
        "figure-figS1": {
            "stdout": "6e8292b5246abdd746ab83e8c8577656c00a2cea69998c151f9ab2ea3b63d772",
        },
        "figure-figS2": {
            "stdout": "d07d482b2a5077e3a670cb518fccfd58cc86b466ffb2d7c7947f5c47701206b0",
        },
        "landscape-json": {
            "stdout": "5e6a44dfddcf0229703c36e70ed408d6d0c448702c410191e74321365e30e52f",
        },
        "samplecount-bell": {
            "stdout": "7c3d81a80811d8551ea9eec6daed296d5391f9303f87d1b2ef382d15c80f6c2d",
        },
        "samplecount-ghz12": {
            "stdout": "4adc093ec8fa34826a4bb708c191017fbf376ee0c70437d977ba026c42ae7782",
        },
        "samplecount-two-qubit-json": {
            "stdout": "dc556a7965527a4c5226bb39d81e820ac69ef54690c96aaae8e446a4810938e2",
        },
        "simulate-honest-json": {
            "stdout": "09e45fb97b494c87a9ad7d2683d51cde09fada1dc3c01c1a8c21a439ad6bf5ca",
        },
        "simulate-transcript": {
            "stdout": "9544c7553e913c9a64373343f6656ceb3fdd6e8a4e1f51017d59d49e3cb86431",
            # JSONL carries no header; unchanged since version 3
            "--transcript": "1490192bc5f73100f49ab4cba46db6fbae60d5dc35bfb2dd9418a6d499d045a4",
        },
        "stabilizer-inspect": {
            "stdout": "033d0db8c5f1aa5de0d83b64ef95f725424942722f5dec0536cad664a723927b",
        },
        "stabilizer-parity-check": {
            "stdout": "25efcb2c3b72309cb66bde9e3a510a7b5e0499e9c59e000ec02d6034b9534ba7",
        },
        "stabilizer-subset-json": {
            "stdout": "d90f2d221b9056f05a4092c64f7c2d44726bdac96c227ea8d55e8f73bf9e704a",
        },
        "strategy-bell": {
            "stdout": "9ef18de469b33540e2298ceb58345e6a831d3dcd85e16df5319c970c96884ecb",
        },
        "strategy-generators-ghz3-json": {
            "stdout": "6022d5795faf27973254ace28227f6a4ec8df00fc30989f2a3ab39966f0b2d8c",
        },
        "strategy-product-epsilon": {
            "stdout": "6c8b591b25ebc10dea0eef5683949ba93e212ef37d219ddcfaa6fd773ee1d8c1",
        },
        "strategy-two-qubit-json": {
            "stdout": "3c32bb7370e27a9ee00cd0965cb8398229e4d4defea5fa8c21c1fd828e39685d",
        },
    },
    7: {
        "figure-fig1": {
            "stdout": "3bb1130ecba54fa1b8014c638e26cc79c74d14d60848943f6e20c17ffe50cbb6",
        },
        "figure-fig2-out-json": {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "--out": "b1b88db6810651e6ab95232bb2e02589e604aea38e7f97d1777e80ef8f018842",
        },
        "figure-figS1": {
            "stdout": "72636d3da0381df4dc36617e9f7ce5f2443323ee3199e1c356ec0e8dd1f81ee7",
        },
        "figure-figS2": {
            "stdout": "e004ba94d5826fdb03940e4c196d138ee64f0b496c23da40d49c5deb02f0676f",
        },
        "landscape-json": {
            "stdout": "c8b9876e3cddba4e6270bd2a9c2f0965df9071f1fabcfff54efae5c6e5ae1afa",
        },
        "samplecount-bell": {
            "stdout": "d3771994be67f8992d3026deff44800d26a44b13cc0757ee661edd1471589a1c",
        },
        "samplecount-ghz12": {
            "stdout": "e6fd2f5e0e82a1d6b40a0ab702a39a0048befc0502289ab342d6c10d31838b9a",
        },
        "samplecount-two-qubit-json": {
            "stdout": "e72c502700c3645e5cebb90148986ac7b09aacdd1118b267f27edd9d0a6209a0",
        },
        "simulate-cluster12-generators": {
            # R != 0: the generators scheme's worst case subtracts the
            # other nonzero syndromes' projectors
            "stdout": "5ac294db92fdbd68be6ad85d2780c9496790e4aa7fb4376b5542805037422ae6",
        },
        "simulate-ghz12": {
            "stdout": "39e70655b10f254fcb953e9ea274a4e129240a4911bc5381379df74437f7e949",
        },
        "simulate-ghz4-generators": {
            "stdout": "adf93810141425017e4d369e0b7585fec54a50c9b7b6bb8ee65adaad574faccb",
            "--transcript": "7af8540d1f72fc526b6ca32afab697b946b8c9063e238558ea955be491c2c956",
        },
        "simulate-honest-json": {
            "stdout": "783e60b29c30ce931c1e302179bc3e0dba09bfbd60be143733df7738052f6a5b",
        },
        "simulate-transcript": {
            "stdout": "7abe744b63408780b114fff6ff33f8465df813d7c79d34969781ce6bdcd7eb72",
            # JSONL carries no header; unchanged since version 3
            "--transcript": "1490192bc5f73100f49ab4cba46db6fbae60d5dc35bfb2dd9418a6d499d045a4",
        },
        "stabilizer-inspect": {
            "stdout": "6e388fe07ce0dfa16c1ae799522c9f003ff4f042cb1443e339da1c46438976f5",
        },
        "stabilizer-parity-check": {
            "stdout": "e2c073fde1d087137666e3f6c0f09facdcb8fa3e39294ee9c36d972b335dc2b6",
        },
        "stabilizer-subset-json": {
            "stdout": "3e54e45b903b6f7bd183a0930ddaba3c953dfad766aeb9fc1ef9071e64fc87d9",
        },
        "strategy-bell": {
            "stdout": "2e61c4108695fd6272ccc6de11473dda1e7f7ce0b8a1853123157987174e82f7",
        },
        "strategy-generators-ghz3-json": {
            "stdout": "4d0732e5e84ce5846079b0807d2bbcfafb7fcdca67766d73fe3b4b22149c4daa",
        },
        "strategy-product-epsilon": {
            "stdout": "5f946bc7f31dfbaadccd7a8edd99c2bf68f116ad9195aa626c315e9420e1163e",
        },
        "strategy-two-qubit-json": {
            "stdout": "7323962e0cda44bda01e1055f4e5d86a2fa8c02c072cc937902d2ca2c10e497a",
        },
    },
    8: {
        "figure-fig1": {
            "stdout": "68c56f8abd98e8d2b5d077e3de24ec66738d81adc5b8d6e7f88a8f903bb37b73",
        },
        "figure-fig2-out-json": {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "--out": "72dcc182ac781b872090c0bcf1ae9ff339d6f17bce829c02b7cd4b0984372eae",
        },
        "figure-figS1": {
            "stdout": "faf512918d4c0f1e4e471747c751c12c3bdd229a2bbbec7c98bdf90f49dd6278",
        },
        "figure-figS2": {
            "stdout": "53d8f80c961e60ae5c2eebb53045c5edc9f9eda84e930676d1df7bdbf961df14",
        },
        "landscape-json": {
            "stdout": "38d7f88acac4c5961c21ab7cce8cb11aa4f701a8c1c2a18441398f5c917f20da",
        },
        "samplecount-bell": {
            "stdout": "d91de4eb8cf625d8edd3b746bfef26b5328e18476bc436c2363f486338fb2796",
        },
        "samplecount-ghz12": {
            "stdout": "446743eb8ded6758921e801a0473e783f07c568ac856481d0a7796ff2c5d7b8e",
        },
        "samplecount-tie": {
            # delta = (1/2)**29 exactly: 29 copies, where version 7 printed 30
            "stdout": "1aff0a3e3c78eb46d0a8ef9d8d0590e8604f110ada3d4fb3004122d808de1aaf",
        },
        "samplecount-two-qubit-json": {
            "stdout": "8904639bb9c179340b5b2ba16f752cc27450614cf46c356597e390aa609bc16d",
        },
        "simulate-cluster12-generators": {
            "stdout": "766d2d93f86495df5222ab4ad6c900e11e8fac9a074f01868c8558b34cb735e6",
        },
        "simulate-ghz12": {
            "stdout": "15e6478436672efc487ed92540e143fe0e3bdbc40dbcdf9b1d09ab5622faf943",
        },
        "simulate-ghz4-generators": {
            "stdout": "61d9f4a973239bb3062ab1ab8cf99733d64d828e528cec4f1811f9882e4c8dfa",
            "--transcript": "7af8540d1f72fc526b6ca32afab697b946b8c9063e238558ea955be491c2c956",
        },
        "simulate-honest-json": {
            "stdout": "e59a1ab1ba1fc2a452f3b7869699d6b70260a206c8e3d44266126c2b133971b8",
        },
        "simulate-transcript": {
            # JSONL carries no header; unchanged since version 3
            "stdout": "8a8087cbf491ce82838f539f7931e1ab3bce57f45dd5a0ffdb5a63faaf89cdb1",
            "--transcript": "1490192bc5f73100f49ab4cba46db6fbae60d5dc35bfb2dd9418a6d499d045a4",
        },
        "stabilizer-inspect": {
            "stdout": "d63bb3dde699ac8aaa6546fe4bd4d14cd4b8999d4d4cf31ab45c2934a099f1ca",
        },
        "stabilizer-parity-check": {
            "stdout": "141c63f1a462cd253c48c3888c44adb4cf3aa9bae48106f22de3fe38b93131ed",
        },
        "stabilizer-subset-json": {
            "stdout": "94c2b50e3b2bbda5689b2c9faa9d1e39a1cf893f59a04b36a0849181b93e6e35",
        },
        "strategy-bell": {
            "stdout": "fe0c06135d3310179634fd2dbce3a4dd01ae74765e63a3d2da1fb87edc74d748",
        },
        "strategy-generators-ghz3-json": {
            "stdout": "408c93c21e0b2e2a1123941be59ddfef1e0fbe0d35d7e7979939f0fff687891d",
        },
        "strategy-product-epsilon": {
            "stdout": "6229ae32a106f558e171f9294962eb164b5431ba03f2dc483c7003cefbe0b35c",
        },
        "strategy-two-qubit-json": {
            "stdout": "6dae6a44733dd521265f29884a9f19bf44e1cd39b0fdccbe8e6ade264f9da7a5",
        },
    },    9: {
        "figure-fig1": {
            "stdout": "097990219a48f288bad0dfb269b798dfe48cbd225a7ef5ea66ab66ac74bbb1ac",
        },
        "figure-fig2-out-json": {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "--out": "3a576616461cfe98192456294f0ef3c1569415d1bcee6ac63d7304a340add4a5",
        },
        "figure-figS1": {
            "stdout": "f6ce059be3d5d21fb779c9dfaa6a73ccc3f865a5d42a1e191459e8e5958fd463",
        },
        "figure-figS2": {
            "stdout": "570fa0ecc84a8a1a1c6c855e8ac4e6c5e85c61f3d6c67b56416b183469b41a2f",
        },
        "landscape-json": {
            "stdout": "500c96f2c86f342c01daf2eedcf68829322a68d2d55d1bf68c7fabedfed57e76",
        },
        "samplecount-bell": {
            "stdout": "be17260911ff25c0dc97e68d67bc962081c9f6b016c79a955265b6efe71ae7e0",
        },
        "samplecount-ghz12": {
            "stdout": "27278a485b05db3d7b44119334c173a242405ffb7195104fedf74e15ce195edd",
        },
        "samplecount-tie": {
            "stdout": "940fa836cd761e1646386abad60c84dda360c2a6f0b273c177155a1ce2f24311",
        },
        "samplecount-two-qubit-json": {
            "stdout": "368fd3f4ededc3af5256a552eed6657b068173e9dd86bc4879c0a5c96fb52eed",
        },
        "simulate-cluster12-generators": {
            "stdout": "600008888d23ff49d81bf78e369b440b3f4bf1e6e3114632f7616ba364d347e6",
        },
        "simulate-ghz12": {
            "stdout": "4db438a10d9b271f95ad6ac3b84700173df4a06690170bf9492d1da746d3e730",
        },
        "simulate-ghz4-generators": {
            "stdout": "aa92abd5a379861923cf55300f3cfc6ca981605b764b2b408137dd0786566eb6",
            "--transcript": "7af8540d1f72fc526b6ca32afab697b946b8c9063e238558ea955be491c2c956",
        },
        "simulate-honest-json": {
            "stdout": "4b45a3060e854877fbadf1236fddfb730132eac37cbec6960fc9ae59792f1574",
        },
        "simulate-transcript": {
            # JSONL carries no header; unchanged since version 3
            "stdout": "3c086fa708bdded8e5c79f5dce69481a62885ec404ce7519d75925ce094145e1",
            "--transcript": "1490192bc5f73100f49ab4cba46db6fbae60d5dc35bfb2dd9418a6d499d045a4",
        },
        "stabilizer-inspect": {
            "stdout": "4a0c8bbdaf74be66de352f0a583c267e0f0842b54f38ed5d1d8ad773d8947fd0",
        },
        "stabilizer-parity-check": {
            "stdout": "439fb9961439a8ead288cff3489cf5f1721c10a22f1a2934cf89a511f0154611",
        },
        "stabilizer-subset-json": {
            "stdout": "24f1aaba117b9329758ba3633319afeb4ef389420baa2d574e5c0b88d2cab281",
        },
        "strategy-bell": {
            "stdout": "900292fa1a5a611de8624ca9be0753d2276d105bf805fe382fd721bf1deb5553",
        },
        "strategy-generators-ghz3-json": {
            "stdout": "d64d9b678b7d34d1214cf9896df9bf772e170a87102ea0522a42a0a725ca1dc8",
        },
        "strategy-product-epsilon": {
            "stdout": "e6499903f9b308ef612a2a8046e7e29ce98be48da61855b1b6c166b3984b4b1d",
        },
        "strategy-two-qubit-json": {
            "stdout": "4f7d3f370cf168a7fa7e4457256f0f096a121fcc1eae2ca3f9ee0d86beabbbf7",
        },
    },
    10: {
        "figure-fig1": {
            "stdout": "18833f0abc639beb4ffa9f11c215d27daf9498e9f309b4b37fc6ba51925c51bb",
        },
        "figure-fig2-out-json": {
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "--out": "21bef65f59274d1c2c3e55bec794cc35734ac86bcca039ef2c6b6bd6b899fcb9",
        },
        "figure-figS1": {
            "stdout": "7958ec29899c7f0162a350541982525422c553ad6cfd2ba6e7dcd13d26a4ebcd",
        },
        "figure-figS2": {
            "stdout": "0c140e85f0e511d87e510d53e733c521a5e6ccbc6b44407b8e20a2109ef7e543",
        },
        "landscape-json": {
            "stdout": "1e00e208fd77f55fa8ebdfcf9bbb581ec40453f5898d3fc7813a9f066fdde42a",
        },
        "samplecount-bell": {
            "stdout": "632f899b5cd90b32a09b819773ed341e7c53d7fe6035714c4080dace4ab37c05",
        },
        "samplecount-ghz12": {
            "stdout": "75a7941b07896b10409ea43c27972d259a6fd10af7cfd38a832cf477f8836f89",
        },
        "samplecount-tie": {
            "stdout": "c9105aa8469b281403798dc05d92185451d9404f0be1852644e17c5d528db7d2",
        },
        "samplecount-two-qubit-json": {
            "stdout": "57edce0d2215528984c3fa922727269cb6bce107fb4d3f0ad594fbba895b3fa7",
        },
        "simulate-cluster12-generators": {
            "stdout": "a9de0610209c1124cb9522776fba3f906f109743041aa6c236b00a198c611b26",
        },
        "simulate-ghz12": {
            "stdout": "96dc907bace12b6d9b241c352e05f76b7e85e879a95cc9c0a6af36de8ee4877f",
        },
        "simulate-ghz4-generators": {
            "stdout": "5ced774e9abc32d4d34d0605672d07d8ac3bf7655993fc7906d98c7e9695e125",
            "--transcript": "7af8540d1f72fc526b6ca32afab697b946b8c9063e238558ea955be491c2c956",
        },
        "simulate-honest-json": {
            "stdout": "17185a94ff11333dcde857c670f88015c43ac6cda01a3fb23c82d0f112fae8af",
        },
        "simulate-transcript": {
            "stdout": "b4931568218e1947208e1875ea02a7074d388810f5ad6afd38d44dca21992b40",
            "--transcript": "1490192bc5f73100f49ab4cba46db6fbae60d5dc35bfb2dd9418a6d499d045a4",
        },
        "stabilizer-inspect": {
            "stdout": "c7f98d16918957b47df228840c9932e47dc1c7691808ff0ffe553d6eda9f117d",
        },
        "stabilizer-parity-check": {
            "stdout": "cab5e2288135eba5b1cf4fd39b73b1f7ffda32369066ad44d12bded8c3170440",
        },
        "stabilizer-subset-json": {
            "stdout": "ebaa2e4e299da4e0d9c9c9af68d0f45ec73fb4c2fdac3495c43ed64c959ee2a1",
        },
        "strategy-bell": {
            "stdout": "a34f37994599e8f0df7d96ddc02096feee90a44f5cf6ad980d50729e7743757f",
        },
        "strategy-generators-ghz3-json": {
            "stdout": "8bebacc1fca17f8b8276102dd02f9c05a6aa3b0b1bddcfd7a1973a8932a9b3a5",
        },
        "strategy-product-epsilon": {
            "stdout": "e86fd3d1d9f01396c8d3a920047d760f34489cf573443bf338b2ec80e0a3fe14",
        },
        "strategy-two-qubit-json": {
            "stdout": "8f64a44fb84bb2e15644ce861bc8080f707cf44f259580392ba7c6d15d26a76c",
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
