"""The CLI reproduces committed artifacts byte for byte.

tests/golden holds the five CSVs and the stdout of `qsu2 all --lmax 16`,
the CSV of `qsu2 commutators --lmax 40`, those of `qsu2 commutators
--lmax <ld> --q <q>` at q 0.7, 1.2 and 3 by ld 24, 62 and 120 and at q
0.7 and 3, ld 40, which fix the witness, the |D| series and the cap on
both sides of q = 1 (from ld 24 up the series runs on leading shells
short of the table's), that of `qsu2 haar --lmax 62 --t-grid 0.5:2:4`,
whose trace functionals sum 85 344 terms, those of `qsu2 validate --lmax
24 --q 0.7` and `--q 3`, which fix the scalar rows away from q = 1.2, and
those of `qsu2 modular --lmax 62 --q 0.7` and `--q 3`, whose generator
scaling runs over several chunks of the shell grid.  A change that
corrects a value regenerates them with those commands (--out
all-ld16.csv, --out commutators-ld40.csv, --out
commutators-ld<ld>-q<q>.csv, --out haar-ld62.csv, --out
validate-ld24-q0.7.csv, --out validate-ld24-q3.csv and --out
modular-ld62-q<q>.csv) and lists the changed cells in CHANGES.md.
"""
import contextlib
import io
import os

import pytest

from qsu2.cli import EXPERIMENTS, main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _golden(name: str) -> bytes:
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def all_ld16(tmp_path_factory):
    """(exit code, stdout, output directory) of one `all --lmax 16` run."""
    out = tmp_path_factory.mktemp("all-ld16")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main(["all", "--lmax", "16", "--out", str(out / "all-ld16.csv")])
    return rc, stdout.getvalue(), out


def test_all_ld16_stdout(all_ld16):
    rc, stdout, _ = all_ld16
    assert rc == 0
    assert stdout.encode() == _golden("all-ld16.stdout")


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_all_ld16_csv(all_ld16, name):
    path = all_ld16[2] / ("all-ld16_%s.csv" % name)
    assert path.read_bytes() == _golden("all-ld16_%s.csv" % name)


def test_commutators_ld40_csv(tmp_path, capsys):
    out = tmp_path / "commutators-ld40.csv"
    assert main(["commutators", "--lmax", "40", "--out", str(out)]) == 0
    assert out.read_bytes() == _golden("commutators-ld40.csv")


@pytest.mark.parametrize("ld, q", [(ld, q) for ld in ("24", "62") for q in ("0.7", "1.2", "3")]
                         + [(ld, q) for ld in ("40", "120") for q in ("0.7", "3")]
                         + [("120", "1.2")])
def test_commutators_csv_over_q_and_lmax(tmp_path, capsys, ld, q):
    name = "commutators-ld%s-q%s.csv" % (ld, q)
    out = tmp_path / name
    assert main(["commutators", "--lmax", ld, "--q", q, "--out", str(out)]) == 0
    assert out.read_bytes() == _golden(name)


def test_haar_ld62_csv(tmp_path, capsys):
    out = tmp_path / "haar-ld62.csv"
    assert main(["haar", "--lmax", "62", "--t-grid", "0.5:2:4", "--out", str(out)]) == 0
    assert out.read_bytes() == _golden("haar-ld62.csv")


@pytest.mark.parametrize("q", ["0.7", "3"])
def test_validate_ld24_csv(tmp_path, capsys, q):
    out = tmp_path / ("validate-ld24-q%s.csv" % q)
    assert main(["validate", "--lmax", "24", "--q", q, "--out", str(out)]) == 0
    assert out.read_bytes() == _golden("validate-ld24-q%s.csv" % q)


@pytest.mark.parametrize("q", ["0.7", "3"])
def test_modular_ld62_csv(tmp_path, capsys, q):
    out = tmp_path / ("modular-ld62-q%s.csv" % q)
    assert main(["modular", "--lmax", "62", "--q", q, "--out", str(out)]) == 0
    assert out.read_bytes() == _golden("modular-ld62-q%s.csv" % q)
