"""CLI behavior: output formats, exit codes, method agreement."""

import gc
import hashlib
import io
import json
import re
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import charquasi
from charquasi import (
    DeformSpec,
    IntMatrix,
    chi_coxeter,
    chi_deform_a,
    chi_deform_d,
    format_matrix,
    gen_coxeter,
    gen_deform,
    known_period,
)
from charquasi import closedforms, counting
from charquasi.cli import main

from conftest import child_env, count_calls, deform_cases


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_b2_golden(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--family", "B", "--m", "2")
        assert code == 0
        assert out == "2 4\n1 0 1 1\n0 1 -1 1\n"

    def test_d_deform_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "gen", "--family", "Ddeform", "--m", "2", "--s", "2,1",
            "--r", "1",
        )
        assert code == 0
        assert out == "2 4\n2 0 1 1\n0 1 -1 1\n"

    def test_empty_arrangement_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--family", "A", "--m", "1")
        assert code == 2
        assert "empty arrangement" in err

    def test_broken_chain_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--family", "Adeform", "--m", "2", "--s", "3,2"
        )
        assert code == 2
        assert "chain" in err

    def test_s_on_coxeter_family_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--family", "B", "--m", "2", "--s", "2"
        )
        assert code == 2
        assert "deformation" in err

    def test_family_needs_m(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--family", "B")
        assert (code, err) == (2, "error: --family needs --m\n")

    def test_bad_s_list_exits_2(self, capsys):
        # An empty item is refused, not dropped: 6,,3 is not s = (6, 3).
        for bad in ("1,x", "6,,3", "6,3,"):
            with pytest.raises(SystemExit) as exc:
                main(["gen", "--family", "Adeform", "--m", "3", "--s", bad])
            assert exc.value.code == 2
            assert "--s expects comma-separated integers" in capsys.readouterr().err

    def test_blank_s_means_t0(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--family", "Adeform", "--m", "3", "--s", "")
        assert (code, out) == (0, format_matrix(gen_deform("Adeform", DeformSpec(3))))

    def test_unknown_family_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--family", "X", "--m", "2"])
        assert exc.value.code == 2


@pytest.mark.parametrize("letter", ["A", "D"])
def test_empty_deformation_fails_alike_on_every_command(capsys, letter):
    # A_1 and D_1 have no hyperplanes, whether named as reflection families
    # or as deformations with t = 0.  D_1 with t = 1 is one hyperplane,
    # refused because type D needs m >= 2, not as an empty arrangement.
    empty = f"empty arrangement: {letter}_1 has no hyperplanes"
    refusals = {
        ("--family", letter, "--m", "1"): empty,
        ("--family", f"{letter}deform", "--m", "1"): empty,
    }
    if letter == "D":
        spec = ("--family", "Ddeform", "--m", "1", "--s", "3")
        refusals[spec] = "type-D deformation needs m >= 2"
    for spec, message in refusals.items():
        commands = [
            ("gen", *spec),
            ("quasi", *spec, "--method", "closed-form"),
            ("quasi", *spec, "--method", "interpolate"),
            ("verify", *spec),
        ]
        for argv in commands:
            assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n"), argv


@pytest.mark.parametrize(
    "command",
    [("gen",), ("quasi", "--method", "closed-form"), ("quasi", "--method", "interpolate"), ("verify",)],
)
def test_r_on_a_deformation_exits_2(capsys, command):
    # The parity split belongs to type D; Adeform refuses it, as the
    # reflection families refuse --s and --r.
    argv = (*command, "--family", "Adeform", "--m", "2", "--s", "2", "--r", "9")
    assert run_cli(capsys, *argv) == (2, "", "error: --r only applies to Ddeform\n")


@pytest.mark.parametrize(
    "command",
    [("gen",), ("quasi", "--method", "closed-form"), ("verify", "--json")],
)
def test_ddeform_works_out_r_from_s(capsys, command):
    # s = (6, 3, 1) has one even entry, so no --r prints what --r 1 prints;
    # a different --r is refused, naming r and the count.
    ddeform = (*command, "--family", "Ddeform", "--m", "4", "--s", "6,3,1")

    def masked(text):
        return re.sub(r'"ms": \d+', '"ms": 0', text)

    code, out, err = run_cli(capsys, *ddeform)
    assert (code, err) == (0, "")
    explicit = run_cli(capsys, *ddeform, "--r", "1")
    assert (explicit[0], masked(explicit[1]), explicit[2]) == (0, masked(out), "")
    message = "error: r must be the number of even entries of s, 1; got r = 2\n"
    assert run_cli(capsys, *ddeform, "--r", "2") == (2, "", message)


@pytest.fixture
def b2_file(tmp_path, capsys):
    path = tmp_path / "b2.txt"
    main(["gen", "--family", "B", "--m", "2"])
    path.write_text(capsys.readouterr().out)
    return str(path)


class TestPeriod:
    def test_exact(self, capsys, b2_file):
        code, out, _ = run_cli(capsys, "period", b2_file)
        assert code == 0 and out == "rho = 2\n"

    def test_trivial_period(self, capsys, tmp_path):
        path = tmp_path / "a3.txt"
        main(["gen", "--family", "A", "--m", "3"])
        path.write_text(capsys.readouterr().out)
        code, out, _ = run_cli(capsys, "period", str(path))
        assert code == 0 and out == "rho = 1\n"

    def test_capped_lower_bound(self, capsys, b2_file):
        code, out, _ = run_cli(
            capsys, "period", b2_file, "--max-subset-size", "1"
        )
        assert code == 0 and out == "rho = 1 lower-bound\n"

    def test_cap_at_the_rank_is_exact(self, capsys, b2_file):
        code, out, _ = run_cli(
            capsys, "period", b2_file, "--max-subset-size", "2"
        )
        assert code == 0 and out == "rho = 2\n"

    def test_too_many_columns(self, capsys, tmp_path):
        path = tmp_path / "wide.txt"
        path.write_text("1 25\n" + " ".join(["1"] * 25) + "\n")
        code, _, err = run_cli(capsys, "period", str(path))
        assert code == 2
        assert "too many columns" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "period", "no-such-file.txt")
        assert code == 2 and err


@pytest.mark.parametrize(
    "command",
    [
        ("period",),
        ("count", "--method", "snf", "--q", "5"),
        ("quasi", "--method", "interpolate"),
    ],
)
def test_undecodable_matrix_file_exits_2(capsys, tmp_path, command):
    # The standard library's own ValueError (here a UnicodeDecodeError) is
    # reported like the package's refusals.
    path = tmp_path / "bad.txt"
    path.write_bytes(b"2 2\n1 0\n0 \xff\n")
    code, out, err = run_cli(capsys, command[0], str(path), *command[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "command, listing",
    [
        (("period",), "rho = 1\n"),
        (("quasi", "--method", "interpolate"), "period 1\nk=1: q - 1\n"),
    ],
    ids=["period", "quasi"],
)
def test_matrix_file_is_read_as_utf8_in_the_c_locale(tmp_path, command, listing):
    # The C locale with UTF-8 mode off decodes text as ASCII; a matrix file
    # is UTF-8 whatever the locale, so an em dash in a comment parses and a
    # file that is not UTF-8 still exits 2.
    env = {**child_env(), "LC_ALL": "C", "PYTHONUTF8": "0"}
    files = {
        "b1.txt": "# B1 \u2014 one hyperplane\n1 1\n1\n".encode(),
        "bad.txt": b"1 1\n\xff\n",
    }
    procs = {}
    for name, text in files.items():
        (tmp_path / name).write_bytes(text)
        procs[name] = subprocess.run(
            [sys.executable, "-m", "charquasi.cli", command[0], str(tmp_path / name),
             *command[1:]],
            capture_output=True,
            text=True,
            env=env,
        )
    good, bad = procs["b1.txt"], procs["bad.txt"]
    assert (good.returncode, good.stdout, good.stderr) == (0, listing, "")
    assert (bad.returncode, bad.stdout) == (2, "")
    assert bad.stderr.startswith("error: 'utf-8' codec can't decode byte 0xff")


class TestCount:
    def test_brute(self, capsys, b2_file):
        code, out, _ = run_cli(capsys, "count", b2_file, "--q", "5")
        assert code == 0 and out == "8\n"

    def test_snf(self, capsys, b2_file):
        code, out, _ = run_cli(
            capsys, "count", b2_file, "--q", "5", "--method", "snf"
        )
        assert code == 0 and out == "8\n"

    def test_q1_always_zero(self, capsys, b2_file):
        code, out, _ = run_cli(capsys, "count", b2_file, "--q", "1")
        assert code == 0 and out == "0\n"

    def test_invalid_q(self, capsys, b2_file):
        code, _, err = run_cli(capsys, "count", b2_file, "--q", "0")
        assert code == 2 and err


def _no_count(*args):
    raise AssertionError("brute_force_count ran")


class TestQuasi:
    def test_closed_form_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "quasi", "--family", "C", "--m", "2", "--method",
            "closed-form",
        )
        assert code == 0
        assert out == "period 2\nk=1: q^2 - 4*q + 3\nk=2: q^2 - 6*q + 8\n"

    def test_closed_form_deform_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "quasi", "--family", "Ddeform", "--m", "2", "--r", "1",
            "--s", "2,1", "--method", "closed-form",
        )
        assert code == 0
        assert out.splitlines()[2] == "k=2: q^2 - 5*q + 6"

    def test_interpolate_from_file(self, capsys, b2_file):
        code, out, _ = run_cli(capsys, "quasi", b2_file, "--method", "interpolate")
        assert code == 0
        assert out == "period 2\nk=1: q^2 - 4*q + 3\nk=2: q^2 - 4*q + 4\n"

    def test_interpolate_from_file_needs_a_cap_of_m(self, capsys, tmp_path):
        # e_1..e_4 and (1, 1, 1, 1, 2) in Z^5: every four columns are
        # torsion-free, so a cap of 4 gives rho = 1; all five have det 2.
        # x_1..x_4 != 0 leaves (q-1)^4 points; 2 x_5 != -(x_1+...+x_4) then
        # leaves q - 1 choices of x_5 for odd q, and for even q, q or q - 2 as
        # the sum is odd or even, (q-1)^5 - 1 in all.
        cols = [tuple(int(i == j) for i in range(5)) for j in range(4)]
        path = tmp_path / "rank5.txt"
        path.write_text(format_matrix(IntMatrix.from_columns([*cols, (1, 1, 1, 1, 2)])))
        code, out, _ = run_cli(capsys, "quasi", str(path), "--method", "interpolate")
        assert code == 0
        assert out.startswith("period 2\n")
        assert out.splitlines()[1:] == [
            "k=1: q^5 - 5*q^4 + 10*q^3 - 10*q^2 + 5*q - 1",
            "k=2: q^5 - 5*q^4 + 10*q^3 - 10*q^2 + 5*q - 2",
        ]

    def test_interpolate_family_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "quasi", "--family", "A", "--m", "2",
            "--method", "interpolate",
        )
        assert code == 0
        assert out == "period 1\nk=1: q^2 - q\n"

    def test_b1_family_and_file_routes_agree(self, capsys, tmp_path):
        # B_1 is one hyperplane x = 0: period 1, whichever route computes it.
        path = tmp_path / "b1.txt"
        main(["gen", "--family", "B", "--m", "1"])
        path.write_text(capsys.readouterr().out)
        family = ("--family", "B", "--m", "1")
        routes = [
            (*family, "--method", "closed-form"),
            (*family, "--method", "interpolate"),
            (str(path), "--method", "interpolate"),
        ]
        for route in routes:
            assert run_cli(capsys, "quasi", *route) == (0, "period 1\nk=1: q - 1\n", "")
        code, out, _ = run_cli(capsys, "verify", *family, "--qmax", "3")
        assert code == 0 and "rho = 1\n" in out

    def test_file_and_family_conflict(self, capsys, b2_file):
        # The two sources are one required mutually exclusive argparse
        # group, so both at once is a usage error.
        with pytest.raises(SystemExit) as exc:
            main(["quasi", b2_file, "--family", "B", "--m", "2", "--method", "interpolate"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: charquasi quasi")
        assert "argument --family: not allowed with argument matrix" in err

    @pytest.mark.parametrize(
        "family_flags",
        [("--m", "7"), ("--s", "4,2"), ("--r", "1"), ("--m", "7", "--s", "4,2", "--r", "1")],
    )
    def test_file_refuses_family_flags(self, capsys, b2_file, family_flags):
        # Without --family these flags describe nothing; the file is not
        # quietly read in their place.
        code, out, err = run_cli(
            capsys, "quasi", b2_file, *family_flags, "--method", "interpolate"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "--family" in err

    def test_closed_form_needs_family(self, capsys, b2_file):
        code, _, err = run_cli(capsys, "quasi", b2_file, "--method", "closed-form")
        assert code == 2 and "family" in err

    def test_needs_some_input(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["quasi", "--method", "interpolate"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: charquasi quasi [-h] (matrix | --family {")
        assert "one of the arguments matrix --family is required" in err

    def test_help_usage_requires_one_source(self, capsys):
        # argparse alone would bracket both sources as optional.
        with pytest.raises(SystemExit) as exc:
            main(["quasi", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "usage: charquasi quasi [-h] (matrix | --family {A,B,C,D,Adeform,Ddeform}) "
            "[--m M] [--s LIST] [--r R] --method {interpolate,closed-form}"
        )

    @pytest.mark.parametrize(
        "source, method, rho",
        [
            (("--family", "Adeform", "--m", "1", "--s", "1000001"), "closed-form", 1000001),
            (("--family", "Adeform", "--m", "1", "--s", "1000001"), "interpolate", 1000001),
            (("--family", "Adeform", "--m", "2", "--s", "50000000"), "interpolate", 50000000),
            (("FILE",), "interpolate", 1000001),
        ],
    )
    def test_listing_over_the_limit_refused_before_any_count(
        self, capsys, monkeypatch, tmp_path, source, method, rho
    ):
        # Each route knows rho before its first constituent or count:
        # known_period for a family, lcm_period for a file (here the one
        # hyperplane 1000001 x = 0).
        monkeypatch.setattr(counting, "brute_force_count", _no_count)
        calls = count_calls(monkeypatch, closedforms, "chi_deform")
        path = tmp_path / "wide.txt"
        path.write_text("1 1\n1000001\n")
        argv = [str(path) if arg == "FILE" else arg for arg in source]
        code, out, err = run_cli(capsys, "quasi", *argv, "--method", method)
        assert (code, out, calls["chi_deform"]) == (2, "", 0)
        assert err.startswith(
            f"error: rho = {rho} is over the listing limit of 1000000 residue classes;"
        )
        assert "verify --qmax N" in err and "chi_deform(family, spec, k)" in err

    def test_listing_limit_admits_rho_at_the_bound(self, monkeypatch):
        # rho = 10^6 is listed: interpolation goes on to its first count.
        monkeypatch.setattr(counting, "brute_force_count", _no_count)
        with pytest.raises(AssertionError, match="brute_force_count ran"):
            main(["quasi", "--family", "Adeform", "--m", "1", "--s", "1000000",
                  "--method", "interpolate"])

    def test_listing_is_streamed_in_blocks(self, monkeypatch):
        # rho = 10^5 lines of about 20 bytes: built whole, the listing and
        # its line list peak over 10 MB under tracemalloc; streamed, the
        # text held at a time is one block of at most 4096 classes.  The
        # sink hashes what it is given, so the bytes are checked too.
        class Sink(io.TextIOBase):
            def __init__(self):
                self.digest, self.writes = hashlib.sha256(), 0

            def write(self, text):
                self.digest.update(text.encode())
                self.writes += 1
                return len(text)

        spec = DeformSpec(1, (10**5,))
        argv = ["quasi", "--family", "Adeform", "--m", "1", "--s", "100000",
                "--method", "closed-form"]
        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = str(closedforms.deform_quasi("Adeform", spec)).encode()
        assert code == 0
        assert sink.digest.hexdigest() == hashlib.sha256(want).hexdigest()
        assert peak < 2 * 10**6
        # The period line, then ceil(10^5 / 4096) = 25 blocks.
        assert sink.writes == 1 + 25

    @pytest.mark.parametrize(
        "family_args",
        [
            ("--family", "A", "--m", "3"),
            ("--family", "B", "--m", "4"),
            ("--family", "C", "--m", "4"),
            ("--family", "D", "--m", "4"),
            ("--family", "Adeform", "--m", "3", "--s", "6,3"),
            ("--family", "Ddeform", "--m", "2", "--s", "2,1", "--r", "1"),
            ("--family", "Ddeform", "--m", "3", "--s", "6,3,1", "--r", "1"),
        ],
    )
    def test_methods_agree_byte_for_byte(self, capsys, family_args):
        code1, out1, _ = run_cli(
            capsys, "quasi", *family_args, "--method", "interpolate"
        )
        code2, out2, _ = run_cli(
            capsys, "quasi", *family_args, "--method", "closed-form"
        )
        assert code1 == code2 == 0
        assert out1 == out2


def _transformed(family: str, m: int) -> IntMatrix:
    """A family matrix after two row shears, reversed columns and sign flips.

    The shears are unimodular (x -> U^T x permutes (Z/q)^m) and a column's
    sign does not move its hyperplane, so counts and period are the family's.
    """
    rows = [list(r) for r in gen_coxeter(family, m).entries]
    rows[0] = [a + b for a, b in zip(rows[0], rows[1])]
    rows[-1] = [a - 2 * b for a, b in zip(rows[-1], rows[0])]
    cols = list(zip(*rows))[::-1]
    return IntMatrix.from_columns(
        c if j % 3 else tuple(-v for v in c) for j, c in enumerate(cols)
    )


@pytest.fixture(scope="module")
def wide_files(tmp_path_factory):
    """Transformed B5 (25 columns) and D6 (30 columns) matrix files."""
    out = {}
    for family, m in (("B", 5), ("D", 6)):
        path = tmp_path_factory.mktemp("wide") / f"{family}{m}.txt"
        path.write_text(format_matrix(_transformed(family, m)))
        out[family, m] = str(path)
    return out


@pytest.mark.parametrize("family, m", [("B", 5), ("D", 6)])
class TestWideMatrices:
    """Only uncapped `period` refuses more than 24 columns."""

    def test_snf_count_matches_closed_form(self, capsys, wide_files, family, m):
        qp = chi_coxeter(family, m)
        for q in (1, 2, 7, 12):
            code, out, _ = run_cli(
                capsys, "count", wide_files[family, m], "--method", "snf", "--q", str(q)
            )
            assert (code, out) == (0, f"{qp(q)}\n"), q

    def test_quasi_file_matches_closed_form(self, capsys, wide_files, family, m):
        flags = ("--family", family, "--m", str(m))
        want = run_cli(capsys, "quasi", *flags, "--method", "closed-form")
        got = run_cli(capsys, "quasi", wide_files[family, m], "--method", "interpolate")
        assert got == want and want[0] == 0

    def test_uncapped_period_exits_2_naming_the_rank(self, capsys, wide_files, family, m):
        path = wide_files[family, m]
        code, out, err = run_cli(capsys, "period", path)
        assert (code, out) == (2, "")
        assert "too many columns" in err
        assert f"rank {m}, and any cap N >= {m} gives the exact period" in err
        code, out, _ = run_cli(capsys, "period", path, "--max-subset-size", str(m))
        assert (code, out) == (0, f"rho = {chi_coxeter(family, m).period}\n")


class TestVerify:
    @pytest.mark.parametrize("family, m", [("B", 5), ("C", 5), ("D", 6)])
    def test_wide_coxeter_families_pass(self, capsys, family, m):
        code, out, _ = run_cli(capsys, "verify", "--family", family, "--m", str(m))
        assert code == 0 and out.splitlines()[-1].startswith("verdict: pass")

    def test_json_schema_and_content(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "Ddeform", "--m", "2", "--s", "2,1",
            "--r", "1", "--qmax", "8", "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert list(report) == ["spec", "rho", "rows", "verdict", "ms"]
        assert report["spec"] == "Ddeform m=2 s=(2,1) r=1"
        assert report["rho"] == 2
        assert report["verdict"] == "pass"
        assert isinstance(report["ms"], int)
        assert [list(row) for row in report["rows"]] == [
            ["q", "brute", "snf", "closed"]
        ] * 8
        row6 = report["rows"][5]
        assert row6 == {"q": 6, "brute": 12, "snf": 12, "closed": 12}

    def test_human_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "C", "--m", "3", "--qmax", "7"
        )
        assert code == 0
        assert "spec: C m=3" in out
        assert "rho = 2" in out
        assert "verdict: pass" in out

    def test_bad_qmax(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--family", "B", "--m", "2", "--qmax", "0"
        )
        assert code == 2 and err

    def test_negative_qmax_refused_before_the_point_budget(self, capsys):
        # (-10^5)^2 points are over the point budget; the < 1 refusal comes
        # first.
        code, out, err = run_cli(
            capsys, "verify", "--family", "B", "--m", "2", "--qmax", "-100000"
        )
        assert (code, out, err) == (2, "", "error: --qmax must be >= 1\n")

    @given(st.sampled_from(["B", "D"]), st.integers(2, 6), st.integers(1, 120))
    @settings(max_examples=60, deadline=None)
    def test_counts_every_modulus_once_in_order_or_none(self, family, m, qmax):
        # Recording counters, and the real check against the default budget
        # of 10^8, which qmax^m straddles for m = 4..6: either no count runs,
        # or each counter sees q = 1..qmax once, ascending.
        seen = {"brute_force_count": [], "snf_count": []}
        with pytest.MonkeyPatch.context() as mp:
            for name, qs in seen.items():
                mp.setattr(counting, name, lambda mat, q, _qs=qs: _qs.append(q) or 0)
            with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
                code = main(
                    ["verify", "--family", family, "--m", str(m), "--qmax", str(qmax)]
                )
        if qmax**m > counting.DEFAULT_POINT_BUDGET:
            assert (code, out.getvalue(), seen) == (2, "", {name: [] for name in seen})
        else:
            assert code in (0, 1)
            assert seen == {name: list(range(1, qmax + 1)) for name in seen}

    def test_invalid_spec_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--family", "Ddeform", "--m", "2", "--s", "3,2",
            "--r", "1",
        )
        assert code == 2 and "chain" in err

    def test_disagreement_exits_1(self, capsys, monkeypatch):
        # Inject a wrong brute-force count to drive the fail verdict.
        monkeypatch.setattr(
            "charquasi.counting.brute_force_count", lambda mat, q: 999
        )
        code, out, _ = run_cli(
            capsys, "verify", "--family", "B", "--m", "2", "--qmax", "5"
        )
        assert code == 1
        assert "verdict: fail" in out

    def test_over_budget_qmax_refused_before_any_other_count(self, capsys, monkeypatch):
        # qmax is checked against the point budget before any count: 40^5
        # points are over the default budget.
        calls = count_calls(monkeypatch, counting, "brute_force_count", "snf_count")
        code, out, err = run_cli(
            capsys, "verify", "--family", "B", "--m", "5", "--qmax", "40"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: 40^5")
        assert (calls["brute_force_count"], calls["snf_count"]) == (0, 0)

    @pytest.mark.parametrize("family", ["B", "C", "Adeform"])
    def test_qmax_over_the_listing_limit_refused_before_any_count(
        self, capsys, monkeypatch, family
    ):
        # A one-dimensional family passes the point budget at any qmax up to
        # 10^8; the listing limit bounds the rows, as it bounds quasi's.
        calls = count_calls(monkeypatch, counting, "brute_force_count", "snf_count")
        code, out, err = run_cli(
            capsys, "verify", "--family", family, "--m", "1", "--qmax", "1000001"
        )
        assert (code, out, sum(calls.values())) == (2, "", 0)
        assert err == (
            "error: --qmax 1000001 is over the listing limit of 1000000 rows; "
            "count single moduli with 'count --q N'\n"
        )

    def test_qmax_at_the_listing_limit_is_counted(self, monkeypatch):
        # qmax = 10^6 is admitted: verify goes on to its first count.
        monkeypatch.setattr(counting, "brute_force_count", _no_count)
        with pytest.raises(AssertionError, match="brute_force_count ran"):
            main(["verify", "--family", "B", "--m", "1", "--qmax", "1000000"])

    def test_huge_period_checks_only_qmax_moduli(self, capsys):
        # rho = 10^7: building the rho-long quasi-polynomial took seconds.
        started = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "verify", "--family", "Adeform", "--m", "2", "--s",
            "10000000", "--qmax", "3",
        )
        assert time.perf_counter() - started < 1.0
        assert code == 0
        assert out.splitlines()[1:6] == [
            "rho = 10000000",
            f"{'q':>4} {'brute':>10} {'snf':>10} {'closed':>10}",
            f"{1:>4} {0:>10} {0:>10} {0:>10}",
            f"{2:>4} {0:>10} {0:>10} {0:>10}",
            f"{3:>4} {4:>10} {4:>10} {4:>10}",
        ]


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "charquasi.cli", "quasi", "--family", "B",
             "--m", "2", "--method", "closed-form"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout == "period 2\nk=1: q^2 - 4*q + 3\nk=2: q^2 - 4*q + 4\n"

    def test_usage_error_returncode(self):
        proc = subprocess.run(
            [sys.executable, "-m", "charquasi.cli", "gen", "--family", "A",
             "--m", "1"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 2
        assert "empty arrangement" in proc.stderr


# entrypoint() with main replaced by a probe that reports the freeze count
# at interpreter start, before the entry and inside it.  Some interpreters
# (CPython 3.12) start with objects already frozen, so the count at start
# need not be 0; importing the CLI must not freeze anything more.
_FREEZE_PROBE = """
import gc
start = gc.get_freeze_count()
from charquasi import cli
before = gc.get_freeze_count()
def probe():
    print(start, before, gc.get_freeze_count())
    return 0
cli.main = probe
cli.entrypoint()
"""


def _entry_argvs(b2_file: str) -> list[list[str]]:
    """One invocation of every subcommand and method, plus an exit-2 error."""
    ddeform = ["--family", "Ddeform", "--m", "3", "--s", "6,3,1", "--r", "1"]
    return [
        ["gen", *ddeform],
        ["period", b2_file],
        ["count", b2_file, "--q", "7", "--method", "brute"],
        ["count", b2_file, "--q", "7", "--method", "snf"],
        ["quasi", b2_file, "--method", "interpolate"],
        ["quasi", *ddeform, "--method", "closed-form"],
        ["verify", "--json", "--family", "B", "--m", "3", "--qmax", "7"],
        ["gen", "--family", "A", "--m", "1"],
    ]


class TestEntrypoint:
    def test_entrypoint_freezes_before_main(self):
        proc = subprocess.run(
            [sys.executable, "-c", _FREEZE_PROBE],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        start, before, inside = map(int, proc.stdout.split())
        assert before == start
        assert inside > before

    def test_main_does_not_freeze(self, capsys, b2_file):
        before = gc.get_freeze_count()
        for argv in _entry_argvs(b2_file):
            main(argv)
        capsys.readouterr()
        assert gc.get_freeze_count() == before

    def test_module_entry_matches_main(self, capsys, b2_file):
        def masked(text):
            return re.sub(r'"ms": \d+', '"ms": 0', text)

        codes = set()
        for argv in _entry_argvs(b2_file):
            code, out, err = run_cli(capsys, *argv)
            proc = subprocess.run(
                [sys.executable, "-m", "charquasi.cli", *argv],
                capture_output=True,
                text=True,
                env=child_env(),
            )
            assert (proc.returncode, masked(proc.stdout), proc.stderr) == (
                code, masked(out), err
            ), argv
            codes.add(code)
        assert codes == {0, 2}


_NUMPY_PROBE = """
import json, sys
import charquasi
from charquasi.cli import main
seen = {"import": "numpy" in sys.modules}
main(["period", sys.argv[1]])
main(["count", sys.argv[1], "--q", "5", "--method", "snf"])
main(["quasi", "--family", "Ddeform", "--m", "4", "--s", "6,3,1", "--r", "1",
      "--method", "closed-form"])
seen["no_brute"] = "numpy" in sys.modules
charquasi.brute_force_count(charquasi.gen_coxeter("B", 2), 5)
seen["brute"] = "numpy" in sys.modules
print(json.dumps(seen))
"""

# numpy made unimportable before charquasi loads; every brute-force route
# must still run and print the same bytes.
_NO_NUMPY_PROBE = """
import io, json, sys
from contextlib import redirect_stdout
sys.modules["numpy"] = None
from charquasi.cli import main
runs = []
for argv in (
    ["quasi", sys.argv[1], "--method", "interpolate"],
    ["count", sys.argv[1], "--q", "5", "--method", "brute"],
    ["verify", "--json", "--family", "B", "--m", "3", "--qmax", "7"],
):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps(runs))
"""


# Modules loaded beyond those of a bare interpreter after the import and
# after each stage named on the command line, run in that order, one line
# per stage; json is not imported here because it is one of the modules
# checked.  The child runs with -S: a site-packages .pth hook can import
# typing, re or pathlib before any program starts, and a module already
# loaded by the interpreter is invisible to the difference.
_LAYER_PROBE = """
import io, sys
from contextlib import redirect_stdout
bare = set(sys.modules)
def stage(name):
    print(name, *sorted(set(sys.modules) - bare), file=sys.stderr)
import charquasi.cli
stage("import")
path = sys.argv[1]
ddeform = ["--family", "Ddeform", "--m", "3", "--s", "6,3,1", "--r", "1"]
argvs = {
    "gen": ["gen", *ddeform],
    "closed-form": ["quasi", *ddeform, "--method", "closed-form"],
    "period": ["period", path],
    "snf": ["count", path, "--q", "5", "--method", "snf"],
    "interpolate": ["quasi", path, "--method", "interpolate"],
}
with redirect_stdout(io.StringIO()):
    for name in sys.argv[2:]:
        assert charquasi.cli.main(argvs[name]) == 0
        stage(name)
"""


# Imports that would serve only annotations, which Python 3.10 evaluates
# without them.
ANNOTATION_ONLY = {"typing", "__future__"}


def _layer_probe(b2_file: str, *stages: str) -> dict[str, set[str]]:
    """Modules loaded after the import and after each stage, in one interpreter."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _LAYER_PROBE, b2_file, *stages],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return {
        stage: set(names)
        for stage, *names in map(str.split, proc.stderr.splitlines())
    }


def _verify_json_b3(qmax: int) -> str:
    """verify --json stdout for B m=3 from the closed form, with ms = 0."""
    qp = charquasi.chi_coxeter("B", 3)
    rows = [{"q": q, "brute": qp(q), "snf": qp(q), "closed": qp(q)}
            for q in range(1, qmax + 1)]
    report = {"spec": "B m=3", "rho": 2, "rows": rows, "verdict": "pass", "ms": 0}
    return json.dumps(report) + "\n"


class TestStartUp:
    def test_numpy_never_loaded(self, b2_file):
        # The package has no runtime dependency: no route loads numpy.
        proc = subprocess.run(
            [sys.executable, "-c", _NUMPY_PROBE, b2_file],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen == {"import": False, "no_brute": False, "brute": False}

    def test_brute_force_routes_run_without_numpy(self, b2_file):
        proc = subprocess.run(
            [sys.executable, "-c", _NO_NUMPY_PROBE, b2_file],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        (c1, quasi), (c2, count), (c3, verify) = json.loads(proc.stdout)
        assert c1 == c2 == c3 == 0
        assert quasi == "period 2\nk=1: q^2 - 4*q + 3\nk=2: q^2 - 4*q + 4\n"
        assert count == "8\n"
        assert re.sub(r'"ms": \d+', '"ms": 0', verify) == _verify_json_b3(7)

    def test_each_command_loads_only_its_layers(self, b2_file):
        loaded = _layer_probe(b2_file, "period", "snf", "interpolate")
        for names in loaded.values():
            assert not names & ANNOTATION_ONLY
        assert {"charquasi.cli", "charquasi.arrangements"} <= loaded["import"]
        layers = {"charquasi.intlinalg", "charquasi.counting", "charquasi.closedforms"}
        unused = {"dataclasses", "inspect", "fractions", "json", "gc"}
        assert not loaded["import"] & (layers | unused)
        assert "charquasi.intlinalg" in loaded["period"]
        assert not loaded["period"] & {"charquasi.counting", "charquasi.closedforms"}
        assert "charquasi.counting" in loaded["snf"]
        assert "charquasi.closedforms" not in loaded["snf"]
        # Interpolation divides in integers; fractions is never loaded.
        assert "fractions" not in loaded["interpolate"]

    def test_family_commands_load_only_their_layers(self, b2_file):
        loaded = _layer_probe(b2_file, "gen", "closed-form")
        for names in loaded.values():
            assert not names & ANNOTATION_ONLY
        package = {name for name in loaded["gen"] if name.startswith("charquasi")}
        assert package <= {
            "charquasi", "charquasi.cli", "charquasi.arrangements", "charquasi.errors"
        }
        # The closed forms build the result types of polynomials, so they
        # load neither the counting layer nor the subset layer.
        assert "charquasi.closedforms" in loaded["closed-form"]
        assert not loaded["closed-form"] & {"charquasi.counting", "charquasi.intlinalg"}


def _per_k_quasi_text(family: str, spec: DeformSpec) -> str:
    """Oracle: one closed-form evaluation per residue class k in 1..rho."""
    chi = chi_deform_a if family == "Adeform" else chi_deform_d
    rho = known_period(spec, family)
    lines = [f"period {rho}"]
    lines += [f"k={k}: {chi(spec, k)}" for k in range(1, rho + 1)]
    return "\n".join(lines) + "\n"


def _closed_form_out(family: str, spec: DeformSpec) -> str:
    argv = ["quasi", "--family", family, "--m", str(spec.m),
            "--s", ",".join(map(str, spec.s)), "--method", "closed-form"]
    if family == "Ddeform":
        argv += ["--r", str(spec.r)]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


class TestClosedFormPerDivisor:
    @given(deform_cases())
    @example(("Adeform", DeformSpec(3, (12, 6, 3))))
    @example(("Ddeform", DeformSpec(4, (12, 6, 3, 1), 2)))
    @example(("Ddeform", DeformSpec(3, (30, 15, 5), 1)))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_k_evaluation(self, case):
        family, spec = case
        assert _closed_form_out(family, spec) == _per_k_quasi_text(family, spec)
