"""Byte-level golden test of the command-line tool and the library's error messages.

Each step runs one command in-process, or one library call, and reduces what
it produced to a sha256 digest: exit code, stdout, stderr and the contents
of every file it wrote or changed. The digests were recorded from a known
good build, so a refactor that must keep every output byte fails here with
the name of the first step whose output moved. Paths under the test's
temporary directory are replaced by ``TMP`` before hashing.

To print the current digests (to review a deliberate output change):
``PYTHONPATH=src:tests python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from coverlattice import CoverLattice
from coverlattice.cli import main

from conftest import FIVE_VERTEX_TEXT, FOUR_CYCLE_TEXT

INPUTS = {
    "five.txt": FIVE_VERTEX_TEXT,
    "cycle.txt": FOUR_CYCLE_TEXT,
    "triangle.txt": "1 2\n2 3\n1 3\n",
    "empty.txt": "# nothing\n",
    # x1=1, y1=4, x2=5, y2=2, x3=6, y3=3: a relabeling that is not the identity
    "shuffled.txt": "5 2\n1 4\n5 4\n6 3\n6 2\n6 4\n",
    "unclosed.lat": "n=3\n{}\n1\n2\n1,2,3\n",
    "no_bottom.lat": "n=2\n1\n1,2\n",
    "no_top.lat": "n=3\n{}\n2\n",
    "out_of_range.lat": "n=2\n{}\n1,3\n",
    "bad_header.lat": "size=2\n{}\n",
}


def _cli(*argv: str):
    def run(tmp: Path):
        out, err = io.StringIO(), io.StringIO()
        args = [str(tmp / a[1:]) if a.startswith("@") else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
        return code, out.getvalue(), err.getvalue()

    return run


def _call(fn):
    def run(tmp: Path):
        try:
            return 0, repr(fn()), ""
        except Exception as exc:  # the message is the output under test
            cert = getattr(exc, "certificate", None)
            return 1, "", f"{type(exc).__name__}: {exc}\ncertificate: {cert}"

    return run


# (step name, runner); "@name" is the file of that name in the temporary directory
STEPS = [
    ("gen n=6", _cli("gen", "--n", "6", "--generators", "4", "--seed", "3",
                     "--out", "@g6.lat", "--graph-out", "@g6.txt")),
    ("gen n=10", _cli("gen", "--n", "10", "--generators", "9", "--seed", "11",
                      "--out", "@g10.lat", "--graph-out", "@g10.txt")),
    ("gen n=12 stdout", _cli("gen", "--n", "12", "--generators", "14", "--seed", "5")),
    ("gen n=4 no generators", _cli("gen", "--n", "4", "--generators", "0")),
    ("dim g6", _cli("dim", "@g6.txt")),
    ("dim g6 json", _cli("dim", "--format", "json", "@g6.txt")),
    ("dim g6 dot", _cli("dim", "--dot", "@g6.dot", "@g6.txt")),
    ("dim g10", _cli("dim", "@g10.txt")),
    ("dim g10 json", _cli("dim", "--format", "json", "@g10.txt")),
    ("dim g10 dot", _cli("dim", "--dot", "@g10.dot", "@g10.txt")),
    ("dim shuffled json", _cli("dim", "--format", "json", "@shuffled.txt")),
    ("dim four-cycle", _cli("dim", "@cycle.txt")),
    ("lattice g10", _cli("lattice", "@g10.txt")),
    ("lattice shuffled out dot", _cli("lattice", "--out", "@shuffled.lat",
                                      "--dot", "@shuffled.dot", "@shuffled.txt")),
    ("from-lattice g6 dot", _cli("from-lattice", "--dot", "@g6b.dot", "@g6.lat")),
    ("from-lattice g10 out", _cli("from-lattice", "--out", "@g10b.txt", "@g10.lat")),
    ("from-lattice shuffled", _cli("from-lattice", "@shuffled.lat")),
    ("check five-vertex", _cli("check", "@five.txt")),
    ("check five-vertex json", _cli("check", "--format", "json", "@five.txt")),
    ("check four-cycle", _cli("check", "@cycle.txt")),
    ("check triangle", _cli("check", "@triangle.txt")),
    ("check shuffled json", _cli("check", "--format", "json", "@shuffled.txt")),
    ("check g10", _cli("check", "@g10.txt")),
    ("covers five-vertex", _cli("covers", "@five.txt")),
    ("covers shuffled json", _cli("covers", "--format", "json", "@shuffled.txt")),
    ("verify n=2", _cli("verify", "--n", "2")),
    ("verify n=4 json", _cli("verify", "--n", "4", "--format", "json")),
    ("verify random 100 7 size 6 json",
     _cli("verify", "--random", "100", "7", "--size", "6", "--format", "json")),
    ("error: from-lattice unclosed", _cli("from-lattice", "@unclosed.lat")),
    ("error: from-lattice no bottom", _cli("from-lattice", "@no_bottom.lat")),
    ("error: from-lattice no top", _cli("from-lattice", "@no_top.lat")),
    ("error: from-lattice out of range", _cli("from-lattice", "@out_of_range.lat")),
    ("error: from-lattice bad header", _cli("from-lattice", "@bad_header.lat")),
    ("error: dim mixed", _cli("dim", "@five.txt")),
    ("error: dim not bipartite", _cli("lattice", "@triangle.txt")),
    ("error: check no content", _cli("check", "@empty.txt")),
    ("error: verify n=5", _cli("verify", "--n", "5")),
    ("error: verify size 9", _cli("verify", "--random", "1", "1", "--size", "9")),
    ("error: gen n=17", _cli("gen", "--n", "17")),
    ("error: CoverLattice n=0", _call(lambda: CoverLattice(0, [{1}]))),
    ("error: CoverLattice range",
     _call(lambda: CoverLattice(2, [frozenset(), {5}, {3}, {1, 2}]))),
    ("error: CoverLattice union", _call(lambda: CoverLattice(2, [(), {1}, {2}]))),
    ("error: CoverLattice intersection",
     _call(lambda: CoverLattice(3, [(), {1, 2}, {2, 3}, {1, 2, 3}]))),
    ("error: CoverLattice no bottom", _call(lambda: CoverLattice(3, [{1}, {1, 2, 3}]))),
    ("error: CoverLattice no top", _call(lambda: CoverLattice(3, [(), {1}]))),
]

GOLDEN = {
    'gen n=6': '960103ce78a7d9e745e90166cfd914782148ae6e9439e502c55ba31fc192184c',
    'gen n=10': '00000048d2e09648a84e7bb11c1db000007dceff9fef3b3309f158f744267529',
    'gen n=12 stdout': '634d0ff62b4b9e11c2c080213c7e7ca378007daa2298293be3850e63ff794f2e',
    'gen n=4 no generators': '8096743f28360d2932f4d906b0787ea09511042c275512b4dfedcd812110c834',
    'dim g6': 'f86466f405c1970a8397adbfb1e791efc69683bee7c9ab3135ea75f818b34671',
    'dim g6 json': '311e1a4b0bbbe6f4943bc17dfa3b1b925204df7279af1525f57ee078c2211790',
    'dim g6 dot': '953983bccf11372d674ac2a7ed12bc2dd37f6fc3976914209f0f1200755c62e7',
    'dim g10': 'da6c24247dc09f7a2dd4d32f97e1ed40d8a329d80ba04f50d94ff2fb56a7c18b',
    'dim g10 json': '41f270436806135325065982a1a547bc0ef176b5b8a212bf483bfd977bc6efa6',
    'dim g10 dot': 'daad27fcb31201c34a158d4a58fe491b786f2e8e913b3345520aa5bb4773a00e',
    'dim shuffled json': '31f35d45fbcf1b2a8473ca5a5ef8441dd4750e5eb38d3edafd73defc607e223a',
    'dim four-cycle': '1cba05fa1f5479b563e856c8f2f6aedc09ffc10975b3b772e99abec1169e7e88',
    'lattice g10': '2b850e5051539638c1f700af6d5f3a8ab178edde5cb82e2b421d45f780afb9e0',
    'lattice shuffled out dot': '4ba90e65e1a172e99ed573c99bdd78d40538972d604e17c05fc92fa39534b073',
    'from-lattice g6 dot': '60c45bb805766b8585762ee25c295b0fd4180e0eef700ef577b092a84002bcd6',
    'from-lattice g10 out': '4a2d92bd930c3aabea6415809b0376bd8944f9a6ca29822fa92947a78d19e62d',
    'from-lattice shuffled': 'ba97e85c41a0ec88b3b8a7ce2390e9bd59952fd0072266e71f1f621b12507773',
    'check five-vertex': 'f070ce0394904f65809e7714aaaba356f1b49e7ed023457549ec41927232f6c3',
    'check five-vertex json': '090d5266838ffbf9f162bda58949fdfdb6188ed907c6266574b8752692f69428',
    'check four-cycle': '59f9073619f96c646a36b573b86fcfcb28b4c256a0d281c7375960f68f07e9c1',
    'check triangle': 'a65c9361d6d90675536b4ebc8863be415789be6d342a7af5b0a3890e8d21dd51',
    'check shuffled json': '22c01d91e0fbe973c71210c1399f4500ac86fd3cf183a524dae8ecdc68d4928f',
    'check g10': 'ff05e0e407d0c9d8bd92e0fe9547c894bd2069f93570665699bb16e175f1f132',
    'covers five-vertex': '2fdd135ef4be9c47a1abc0d870b7df259a478c8a0d73bf1d46ff415fdc7bb66e',
    'covers shuffled json': '329b7543235d025eae7f66a6386151956b6a773ac13a39be852d4d4f30ab03e0',
    'verify n=2': 'e1d669ddf404871f835db0bd7fbf6c7cb9075ea862b74fc937310a7025ed3ec6',
    'verify n=4 json': 'bb7b607654bfa7690413fd4ee7f8a18595520dd815b3c6991c3c22dda11a52a0',
    'verify random 100 7 size 6 json': 'f0d525559b07489d313a81554d04d3a236c0896487e6a5ccf0ebe2a4b470a508',
    'error: from-lattice unclosed': '57ecbe55e9be20bbe60b25195c56ad0ea50c44a2f770689123ae46d488ab0e33',
    'error: from-lattice no bottom': '3c44067fc5dac2d09d2dbc4dbb9d80981c31df3c63d8ad183b1c87b98312b6d1',
    'error: from-lattice no top': '2675ff1c5e8135e6005e1f159e3ffd0adfed35e60e986eabdd0fc6d8e6b90969',
    'error: from-lattice out of range': '5aeeac0d285590459cb438318e9208cb2a7130e16d4e23d42c53ebb8fdcd8d01',
    'error: from-lattice bad header': 'a725919b4845c0331eef74a270f34802239fcb992901c93980bdb9c22d8e5d25',
    'error: dim mixed': '32d249541e0ac188e58e16f43d2cecec1a17739e903e1081b077052d58e1bd7e',
    'error: dim not bipartite': 'dcb3fe8300dd3e795ac91391a1d8a81ff26f05d2b38402f8e92159eeb990ff3f',
    'error: check no content': 'af703794e521f1b5fe74eae73d8a1344d416530e1cdeddc6c11382e1e0c15df9',
    'error: verify n=5': '900a1153bc027ef033011f334eb260cd02cdac95808fbf2a44418a6568c486ff',
    'error: verify size 9': 'a6628a8c2f0ed4033d7b57166c4cc6a3a24da3a8ddf191a8a304b642a9b64a6e',
    'error: gen n=17': '9a9cd8ea4d88af32dee4f35e1e8ba6e0b90aaf4cd2f5a469985f4837a18070c3',
    'error: CoverLattice n=0': '4ed1dbda9137911d7569fb1feed33ac70a6389b6a9c670598d07af7a9a269e0d',
    'error: CoverLattice range': '591c14b2f5d1ea6a0eaaaffdb12324bef55b8a811dab5dbb19e25ba254479574',
    'error: CoverLattice union': '63a6364ca7fab3a5dad2ddb9702f820bd65b3b8090d67dfb3287eabee579cdf6',
    'error: CoverLattice intersection': '7ecb402d034719a1139ee5d1c085192b6f4e27d7b60a1e4608cc30123925d7ac',
    'error: CoverLattice no bottom': '9370eab40982b435bbd668a2b2a578102b0eb5e9e7f79560a5f2230e030d81d2',
    'error: CoverLattice no top': '5d9e29f603fa63f73417a2b41c8d91ecf52cd7fe11cb491fe4a0f143ac69d4db',
}


def digests() -> dict[str, str]:
    """Run every step in order, in a fresh temporary directory."""
    out = {}
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for file_name, text in INPUTS.items():
            (tmp / file_name).write_text(text)
        seen = {p.name: p.read_bytes() for p in tmp.iterdir()}
        for step, run in STEPS:
            code, stdout, stderr = run(tmp)
            now = {p.name: p.read_bytes() for p in tmp.iterdir()}
            written = {k: v.decode() for k, v in sorted(now.items()) if seen.get(k) != v}
            seen = now
            record = json.dumps([code, stdout, stderr, written]).replace(str(tmp), "TMP")
            out[step] = hashlib.sha256(record.encode()).hexdigest()
    return out


def test_outputs_match_the_recorded_digests():
    got = digests()
    assert list(got) == list(GOLDEN), "the step list differs from the recorded one"
    changed = [step for step in GOLDEN if got[step] != GOLDEN[step]]
    assert not changed, f"first step whose output differs: {changed[0]!r} (all: {changed})"


if __name__ == "__main__":
    for step, digest in digests().items():
        print(f"    {step!r}: {digest!r},")
