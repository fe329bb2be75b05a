"""Byte-pinned reports of every bundled CLI command.

Each command runs in-process on a bundled workspace and writes its report
to a file; the sha256 of that file is compared against the table below.
A change that alters a certified answer, a counter or the report layout
changes a digest, and must say why.
"""

import hashlib
import json

import pytest

from commacat import cli

WORKSPACES = ("arrow", "coherent_systems", "framed_modules")


def _bundled(name):
    with open(cli.bundled_workspace_path(name)) as fh:
        return json.load(fh)


def _commands():
    """(workspace, argv) for every command the bundled workspaces name."""
    out = []
    for ws_name in WORKSPACES:
        ws = _bundled(ws_name)
        out.append((ws_name, ["validate"]))
        for name, entry in ws.get("morphisms", {}).items():
            for cmd in ("kernel", "cokernel", "image"):
                out.append((ws_name, [cmd, entry["context"], name]))
        objects = ws.get("objects", {})
        for name in objects:
            out.append((ws_name, ["kclass", name]))
            out.append((ws_name, ["jh", name]))
        in_context = [(name, entry["context"]) for name, entry in objects.items()
                      if "context" in entry]
        for name, ctx in in_context:
            out.append((ws_name, ["subobjects", ctx, name]))
        for stab, entry in ws.get("stability", {}).items():
            if entry["kind"] == "table":
                for name, _ in in_context:
                    out.append((ws_name, ["hn", stab, name]))
    for rng in ("1/2:4", "1/10:10"):
        out.append(("coherent_systems",
                    ["scan-alpha", "system", "toy_curve", rng]))
    out.append(("arrow", ["counterexample"]))
    return out


COMMANDS = _commands()


def _id(cmd):
    ws_name, argv = cmd
    return ":".join([ws_name] + argv)


# sha256 of each report, keyed by workspace and argv
REPORT_SHA256 = {
    "arrow:validate":
        "b4f21038f3d3589f4dc6f67055ecd1c2b974f118c614857bed857976b5c7a10b",
    "arrow:kernel:arrow:into_diagonal":
        "897628a01e706b1582d452b679faab9a6fa036734efa3ad95496feea2a7dfa13",
    "arrow:cokernel:arrow:into_diagonal":
        "3ee2200da7b7e6725528415ab37e8a1b2b98ae12a28ad187fb3342f1d4505daf",
    "arrow:image:arrow:into_diagonal":
        "20759021b49ca9768a7f5286819f5beb0731b6429bec2fd935a55c459a18e83a",
    "arrow:kernel:arrow:through_sections":
        "c692d2de98d2ff45b2ac162c02a793f01155340a8cedd29c922e2a2eac4104f1",
    "arrow:cokernel:arrow:through_sections":
        "a0778a3362dd787cfcf31ac6319a5400f0d11ff92342264d9139e77ca19ca69f",
    "arrow:image:arrow:through_sections":
        "64255048b4e28998908574842d4792ba498bd428e663d88c31c7351a6b1f237f",
    "arrow:kclass:line":
        "4c9a6fcd486407ec39aaccf16b268b2289eb38d8d67b360a3ce98f34f6121570",
    "arrow:jh:line":
        "d4e711185ce176603438f81679ce1aa61391f73ac85a5d090e4daa37a0af646a",
    "arrow:kclass:plane":
        "30bc42abf8d38904dfa1c1411d53b664205f098ae496d02e77413f8119adeeb1",
    "arrow:jh:plane":
        "3f5b42769bb2d2ea0edf0425a7277ed49f688b49ace0b738a2131bbef48a5452",
    "arrow:kclass:zero_map":
        "969083e20667ba6d5d431f2fbad6850a7f2ab8a3a5ca8dc6cc2dc5915688c5fe",
    "arrow:jh:zero_map":
        "c92405f1ae55491257225e12444e854d9653060ecaa38b4406d8270469b2081b",
    "arrow:kclass:identity_map":
        "cad2ccc6bcc8ba233e06e457803d427bf41cac5093ae197e7965a85151cb5efb",
    "arrow:jh:identity_map":
        "19952d8ee13d0fb7da51e16154ad249dba0a73db01bd39819fa8985b403f133b",
    "arrow:kclass:plane_collapse":
        "2e2fbe2598bd8e90b0709a9055d0a07e3c3d30fd83596e43fd0f6b607ea33793",
    "arrow:jh:plane_collapse":
        "3185e1239b6999b4e3fbdd9f7ef9dbecd8a1b57a20657bab3ee66b0a7c3117ee",
    "arrow:subobjects:arrow:zero_map":
        "e6a1b6272617bb82e0380ef9f442bdd81b4814a0e29b79bfd7ad769b7cc2c006",
    "arrow:subobjects:arrow:identity_map":
        "1f028b55eb4268feb33c005e5a88afc6af92e5dc86ab0ad82f3085c0ae4c8a49",
    "arrow:subobjects:arrow:plane_collapse":
        "17ac752a72c19ceb09e1cea49c882018cfbbd3c571cd3e14dd5c02fe2b50af13",
    "arrow:hn:Z:zero_map":
        "ce08b4c71a5519101437e08c708e5b24f57e62269718a81b35e15897f1b560c0",
    "arrow:hn:Z:identity_map":
        "9c0ce9fd05bf263e7c79e3feedb99d26a43abd3636dcc2325b84dbb05b3edd68",
    "arrow:hn:Z:plane_collapse":
        "b29adb9784e6abb5558aac9435fc68cf1424655e3298e6883494731277967044",
    "coherent_systems:validate":
        "694baabb4e29df95a3ad402524fcb7df302b95828258a661df2fedf00e490466",
    "coherent_systems:kclass:sections_probe":
        "376490367f8e89293a9dbda5fa32af776070fc4a8613300c2743d4ae0aeb74eb",
    "coherent_systems:jh:sections_probe":
        "8c5e018a2c5e9428acba6996fa83dc8719c42246d1f4e14c46cde5f2c3bf3574",
    "coherent_systems:kclass:bundle":
        "1f1fcb986705c9d94189003e7ed73c8d489d712afb08002db81549dd54757c74",
    "coherent_systems:jh:bundle":
        "276506a1d04c454c21edbdd65a6538a0a909090e751d0a38e4429151c9a53c57",
    "coherent_systems:kclass:one_section":
        "78730bf6b3ac8d269bf87afbceebf2efdf84e136acae5e901386846447b8edd1",
    "coherent_systems:jh:one_section":
        "516d750e1d27a6a86f44cec27dd975ea6090dfda75409f560d70cda5b318fbcf",
    "coherent_systems:kclass:system":
        "5257291123bea2c8b814fe76e89a4f9325d94b3404a8cd50f4ec0746e1703c7f",
    "coherent_systems:jh:system":
        "02d740cc9aac688eaff2b6f40cc191ae8d2a0dc0c84687885f175a3aa2025c94",
    "coherent_systems:subobjects:systems:system":
        "48305b43b506b970c48e950668238f8a9cdc161141f8cc4f0f79e3044580e358",
    "framed_modules:validate":
        "0f12c9ea6c0f181c2e65d998e0296f6e8753c670300a47824aa6a2018619818c",
    "framed_modules:kernel:framed:drop_framing":
        "75cfc1bc82b25e1f123e3256254a24efdc7903d99de0cd04794e42d8e09ec5e4",
    "framed_modules:cokernel:framed:drop_framing":
        "e6d3430b07f82e5562577c82f25684845e37b250d885f78d8b865aa03ea4c8b4",
    "framed_modules:image:framed:drop_framing":
        "b2be3cf673bc0a6e32182de372be2ed49c5ab103b7aa62cf476a9cf8c21c2a6a",
    "framed_modules:kclass:framing":
        "04df86c35168a2781aacfe3b4259478b5d9efc2e8977f7e54375b7935e602b51",
    "framed_modules:jh:framing":
        "c2b91b0e137b603e4e4f3bbff03f986ef6a682623c7ba234028df156a7f79a06",
    "framed_modules:kclass:sink_module":
        "954bca9074863ebc9f0582b8b67812555d0cf6e833f6bfb2615b64ac0bf5eb8e",
    "framed_modules:jh:sink_module":
        "22081ed4b3f96177af704360ff8cb01d37d98d83de33891ecc3f5173fc110cfa",
    "framed_modules:kclass:vector":
        "78fbcc2f8b9d262bf5fd6511015eae627c3bbbe443bfe99a88b4179b2436f695",
    "framed_modules:jh:vector":
        "12c4c35d521a63bb323d48269cc74712a201f43a72da5197deffd8ebb5db6cf8",
    "framed_modules:kclass:framed_module":
        "61e5b5f4338e5726d172e8c7fcaf3814509e56831e33483b866214a4ea89b196",
    "framed_modules:jh:framed_module":
        "df0072c0456bbb90a50de79f1be36e2e14fa592e0f06521e34221ebb843995ca",
    "framed_modules:kclass:loose_module":
        "f574e38eb4747eabecf16ab47439ba6bb628c658da3846eb6b7f29e2172a70f4",
    "framed_modules:jh:loose_module":
        "9bfffd5fa5da3437e2a616330a85c188b6a601c55ce55ff77fd6fbf0ff11c9aa",
    "framed_modules:subobjects:framed:framed_module":
        "07669f54ea6dd3371b3e2cd051452d71638c9928c41b041fa56e59717f89fd3e",
    "framed_modules:subobjects:framed:loose_module":
        "0738e1878fe18aba8a3b1c18bd3b85614f689940b0030c273a8b8dffeb85080a",
    "framed_modules:hn:Zf:framed_module":
        "c3a05df84e9b03f6b8294457afa62ba7bbb7d3d46208d7fa252ea13d6b72f610",
    "framed_modules:hn:Zf:loose_module":
        "1d58969638eebb63fb222e2deb8d0269b30f43e3ede2cb10b4cc3c2e5ec3e8d8",
    "coherent_systems:scan-alpha:system:toy_curve:1/2:4":
        "a61b925fab61acff553469b6a75d1a7f45904b0662a992345cde63739a61b692",
    "coherent_systems:scan-alpha:system:toy_curve:1/10:10":
        "bf3e52c63d1e3c82aeda873668a4c331097715701d8db6e2168ef97e72aaff18",
    "arrow:counterexample":
        "6a15c6a72a220509d87f1d0c64728f63faae17c6bace09738ecf2fb9c716e772",
}


def test_every_command_is_pinned():
    assert sorted(map(_id, COMMANDS)) == sorted(REPORT_SHA256)
    assert len(COMMANDS) == 54


@pytest.mark.parametrize("cmd", COMMANDS, ids=_id)
def test_report_digest(cmd, tmp_path):
    ws_name, argv = cmd
    out = tmp_path / "report.json"
    code = cli.main(argv + ["--spec", cli.bundled_workspace_path(ws_name),
                            "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_SHA256[_id(cmd)]
