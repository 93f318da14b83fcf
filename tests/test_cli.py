import pytest

from zschur import Coloring, construct, format_coloring, parse_coloring
from zschur import verification
from zschur.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBounds:
    def test_exact_prime(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--k", "10", "--r", "5")
        assert code == 0
        assert "lower=45 upper=45 exact=true" in out

    def test_infinite(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--k", "5", "--r", "3")
        assert code == 0
        assert "lower=inf upper=inf exact=true" in out

    def test_bracket(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--k", "12", "--r", "6")
        assert code == 0
        assert "lower=65 upper=68 exact=false" in out
        assert "upper 68 composite-prime-factor-upper" in out

    def test_binary_variant(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--k", "8", "--r", "4",
                               "--variant", "binary")
        assert code == 0
        assert "lower=25 upper=25 exact=true" in out

    def test_binary_diagonal(self, capsys):
        # the two-color construction is free on [1..15] at k = r = 5
        code, out, _ = run_cli(capsys, "bounds", "--k", "5", "--r", "5",
                               "--variant", "binary")
        assert code == 0
        assert "lower 16 two-color-construction" in out
        assert "lower=16 upper=inf exact=false" in out

    def test_invalid_parameters(self, capsys):
        # an r above 10**12 is refused: trial division of this prime
        # would run for minutes
        for k, r in (("2", "2"),
                     ("2000000000000000006", "1000000000000000003")):
            code, _, err = run_cli(capsys, "bounds", "--k", k, "--r", r)
            assert code == 2
            assert "error" in err


class TestConstruct:
    def test_writes_file_and_reports_n(self, capsys, tmp_path):
        out_file = tmp_path / "c.txt"
        code, out, _ = run_cli(capsys, "construct", "--k", "6", "--r", "3",
                               "--out", str(out_file))
        assert code == 0
        assert "n=14" in out
        chi, k = parse_coloring(out_file.read_text())
        assert (chi.n, k, chi.r) == (14, 6, 3)
        assert out_file.read_text().startswith("14 6 3\n")

    def test_even_header(self, capsys, tmp_path):
        out_file = tmp_path / "c.txt"
        code, out, _ = run_cli(capsys, "construct", "--k", "8", "--r", "4",
                               "--out", str(out_file))
        assert code == 0
        assert out_file.read_text().startswith("26 8 4\n")

    def test_stdout_mode(self, capsys):
        code, out, err = run_cli(capsys, "construct", "--k", "4", "--r", "2")
        assert code == 0
        assert out.startswith("4 4 2\n1 0 0 1")
        assert "n=4" in err

    def test_parity_error(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--k", "6", "--r", "4")
        # construct() dispatches on parity, so r=4 builds the even coloring
        assert code == 0
        code, _, err = run_cli(capsys, "construct", "--k", "6", "--r", "1")
        assert code == 2

    @pytest.mark.parametrize("k,message", [("2", "k must be >= 3, got 2"),
                                           ("1", "k must be >= 3, got 1")])
    def test_k_below_three(self, capsys, k, message):
        # k=2 once wrote the header "0 2 2", which check rejects, and k=1
        # reported a negative n instead of the bad k
        code, out, err = run_cli(capsys, "construct", "--k", k, "--r", "2")
        assert code == 2
        assert out == ""
        assert message in err


class TestCheck:
    def test_free_roundtrip(self, capsys, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text(format_coloring(construct(6, 3), 6))
        code, out, _ = run_cli(capsys, "check", str(f), "--k", "6")
        assert code == 0
        assert out.strip() == "FREE"

    def test_witness_line_and_exit(self, capsys, tmp_path):
        f = tmp_path / "mono.txt"
        f.write_text("3 4 2\n1 1 1\n")
        code, out, _ = run_cli(capsys, "check", str(f), "--k", "4")
        assert code == 1
        assert out.strip() == "WITNESS target= 3 parts= 1 1 1"

    def test_k_defaults_to_header(self, capsys, tmp_path):
        f = tmp_path / "mono.txt"
        f.write_text("3 4 2\n1 1 1\n")
        code, out, _ = run_cli(capsys, "check", str(f))
        assert code == 1
        assert "WITNESS" in out

    def test_header_mismatch_warns(self, capsys, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text(format_coloring(construct(6, 3), 6))
        code, out, err = run_cli(capsys, "check", str(f), "--k", "7")
        assert "warning" in err
        # the k=7 query against the k=6 construction is a different question;
        # only the warning and a clean exit path are asserted here
        assert code in (0, 1)

    def test_invalid_k_exits_without_warning(self, capsys, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text(format_coloring(construct(6, 3), 6))
        code, out, err = run_cli(capsys, "check", str(f), "--k", "2")
        assert code == 2
        assert "k must be >= 3" in err
        assert "warning" not in err

    def test_malformed_file(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("not a header\n")
        code, _, err = run_cli(capsys, "check", str(f))
        assert code == 2
        assert "error" in err

    def test_huge_header_r(self, capsys, tmp_path):
        # colors up to c_max need only k*c_max + 1 residues, so a huge
        # header r with small colors is checked at once.  A color near
        # r = 10**18 needs table rows that cannot be held (MemoryError),
        # and near r = 10**21 rows whose width overflows before anything
        # is allocated (OverflowError): invalid input, not a witness
        f = tmp_path / "big.txt"
        for r in (10**6, 10**18):
            f.write_text(f"3 3 {r}\n0 0 0\n")
            code, out, _ = run_cli(capsys, "check", str(f))
            assert code == 1, r
            assert out.strip() == "WITNESS target= 2 parts= 1 1"
        for r in (10**18, 10**21):
            f.write_text(f"3 3 {r}\n0 0 {r - 1}\n")
            code, out, err = run_cli(capsys, "check", str(f))
            assert code == 2, r
            assert out == "" and "out of memory" in err, r

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "check", "/nonexistent/file.txt")
        assert code == 2

    def test_injected_fault_is_caught(self, capsys, tmp_path):
        # flip one residue of a certified coloring; the checker must object
        chi = construct(6, 3)
        broken = list(chi.values)
        broken[5] = (broken[5] + 1) % 3  # position 6 leaves its allowed set
        f = tmp_path / "broken.txt"
        f.write_text(format_coloring(Coloring.of(broken, 3), 6))
        code, out, _ = run_cli(capsys, "check", str(f), "--k", "6")
        assert code == 1
        assert out.startswith("WITNESS")


class TestSolve:
    def test_exact(self, capsys, tmp_path):
        cert = tmp_path / "cert.txt"
        code, out, _ = run_cli(capsys, "solve", "--k", "6", "--r", "3",
                               "--deterministic", "--cert-out", str(cert))
        assert code == 0
        assert "status=exact value=15" in out
        chi, k = parse_coloring(cert.read_text())
        assert chi.n == 14 and k == 6

    def test_cert_out_into_a_missing_directory_exits_before_the_search(
            self, capsys, tmp_path):
        # a path in a missing directory, and a path that is a directory
        for cert in (tmp_path / "missing" / "cert.txt", tmp_path):
            code, out, err = run_cli(capsys, "solve", "--k", "6", "--r", "3",
                                     "--cert-out", str(cert))
            assert code == 2, cert
            assert out == "", cert  # no status line: the search never ran
            assert "cannot write" in err, cert
        assert not (tmp_path / "missing").exists()

    def test_budget_without_certificate_writes_no_file(self, capsys,
                                                        tmp_path):
        cert = tmp_path / "cert.txt"
        code, out, _ = run_cli(capsys, "solve", "--k", "12", "--r", "6",
                               "--timeout", "0", "--cert-out", str(cert))
        assert code == 3
        assert "certificate=" not in out
        assert not cert.exists()

    def test_infinite(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--k", "5", "--r", "3")
        assert code == 0
        assert "status=infinite value=inf" in out

    def test_budget_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--k", "12", "--r", "6",
                               "--max-nodes", "1000")
        assert code == 3
        assert "status=budget-exhausted" in out
        fields = dict(f.split("=") for f in out.split()[:6])
        assert int(fields["nodes"]) + int(fields["probes"]) <= 1000

    def test_timeout_covers_the_certified_start(self, capsys):
        # an expired timeout ends the solve at the floor k-1 before the
        # construction is checked, so no search allocates its tables
        for k, r in ((130, 65), (600, 300),
                     (20_000_000_000_000, 10_000_000_000_000)):
            code, out, _ = run_cli(capsys, "solve", "--k", str(k),
                                   "--r", str(r), "--timeout", "0")
            assert code == 3
            assert (f"status=budget-exhausted value={k - 1} nodes=0 "
                    in out)

    def test_binary_variant(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--k", "8", "--r", "4",
                               "--variant", "binary")
        assert code == 0
        assert "status=exact value=25" in out

    def test_threads_flag(self, capsys):
        # the search is sequential; solve has no --threads flag
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--k", "6", "--r", "3", "--threads", "2"])
        assert exc.value.code == 2

    def test_invalid_k(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--k", "2", "--r", "2")
        assert code == 2

    def test_invalid_timeout(self, capsys):
        # a NaN deadline never expires and a negative one already has
        for timeout in ("nan", "-1"):
            code, out, err = run_cli(capsys, "solve", "--k", "6", "--r", "3",
                                     "--timeout", timeout)
            assert code == 2, timeout
            assert out == "" and "timeout" in err


class TestVerify:
    def test_every_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        lines = out.splitlines()
        n = len(verification.CHECKS)
        assert [line.split()[:2] for line in lines[:-1]] == [
            ["PASS", name] for name, _ in verification.CHECKS]
        assert lines[-1] == f"passed={n}/{n} exit=0"

    def test_takes_no_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "paper"])
        assert exc.value.code == 2

    def test_any_failed_check_exits_1(self):
        passed = verification.CheckResult("a", True)
        failed = verification.CheckResult("b", False, "boom")
        assert verification.suite_exit_code([passed]) == 0
        assert verification.suite_exit_code([failed]) == 1
        assert verification.suite_exit_code([passed, failed, passed]) == 1
        assert failed.line().startswith("FAIL b boom")


def test_check_verdict_matches_library_roundtrip(capsys, tmp_path):
    # construct -> file -> parse -> check agrees with the in-process pipeline
    from zschur import ProblemSpec, is_solution_free, read_coloring
    f = tmp_path / "c.txt"
    code, _, _ = run_cli(capsys, "construct", "--k", "10", "--r", "5",
                         "--out", str(f))
    assert code == 0
    chi, k = read_coloring(f)
    assert is_solution_free(chi, ProblemSpec(k=k, r=chi.r))
    code, out, _ = run_cli(capsys, "check", str(f), "--k", "10")
    assert code == 0 and out.strip() == "FREE"
