"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestListCommands:
    def test_list_features(self, capsys):
        assert main(["list-features"]) == 0
        out = capsys.readouterr().out
        assert "parallel.num_gangs" in out
        assert "runtime.acc_malloc" in out

    def test_list_vendors(self, capsys):
        assert main(["list-vendors"]) == 0
        out = capsys.readouterr().out
        assert "caps" in out and "pgi" in out and "cray" in out
        assert "C bugs:  36" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert out.count("matches paper: True") == 3


class TestGenerate:
    def test_generate_both_modes(self, capsys):
        assert main(["generate", "loop", "--language", "c"]) == 0
        out = capsys.readouterr().out
        assert "functional test" in out and "cross test" in out
        assert "#pragma acc parallel" in out

    def test_generate_fortran(self, capsys):
        assert main(["generate", "loop", "--language", "fortran",
                     "--mode", "functional"]) == 0
        out = capsys.readouterr().out
        assert "!$acc parallel" in out

    def test_generate_unknown_feature(self, capsys):
        assert main(["generate", "no.such.feature"]) == 1


class TestValidate:
    def test_validate_reference_slice(self, capsys):
        code = main(["validate", "--features", "wait", "--language", "c",
                     "--iterations", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "100.00% pass" in out

    def test_validate_vendor_exit_code(self, capsys):
        code = main(["validate", "--vendor", "cray", "--version", "8.1.2",
                     "--language", "c", "--iterations", "1", "--no-cross",
                     "--features", "cache"])
        assert code == 2  # failures present
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_validate_csv_format(self, capsys):
        main(["validate", "--features", "wait", "--language", "c",
              "--iterations", "1", "--format", "csv"])
        out = capsys.readouterr().out
        assert out.startswith("feature,language,result")

    def test_validate_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.html"
        main(["validate", "--features", "wait", "--language", "c",
              "--iterations", "1", "--format", "html",
              "--output", str(target)])
        assert target.exists()
        assert target.read_text().startswith("<!DOCTYPE html>")

    def test_vendor_requires_version(self, capsys):
        with pytest.raises(SystemExit):
            main(["validate", "--vendor", "pgi"])

    def test_validate_parallel_engine_with_metrics(self, capsys):
        code = main(["validate", "--features", "wait", "--language", "c",
                     "--iterations", "1", "--policy", "process",
                     "--workers", "2", "--metrics"])
        assert code == 0
        out = capsys.readouterr().out
        assert "100.00% pass" in out
        assert "run metrics" in out
        assert "policy             : process (workers=2)" in out

    def test_validate_metrics_csv(self, capsys):
        main(["validate", "--features", "wait", "--language", "c",
              "--iterations", "1", "--format", "csv", "--metrics",
              "--no-compile-cache"])
        out = capsys.readouterr().out
        assert "metric,value" in out
        assert "cache_hits,0" in out

    def test_validate_rejects_bad_workers(self, capsys):
        # rejected at argparse level, before any suite work starts
        with pytest.raises(SystemExit):
            main(["validate", "--features", "wait", "--language", "c",
                  "--iterations", "1", "--workers", "0"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_empty_selection_exits_nonzero(self, capsys):
        # used to print an empty 0.00% report and exit 0 — a vacuous pass
        code = main(["validate", "--features", "no.such.prefix",
                     "--language", "c", "--iterations", "1"])
        assert code == 1
        captured = capsys.readouterr()
        assert "matched no templates" in captured.err
        assert "no.such.prefix" in captured.err

    def test_inject_faults_with_retries_heals(self, capsys):
        code = main(["validate", "--features", "wait", "--language", "c",
                     "--iterations", "1", "--no-cross", "--retries", "2",
                     "--inject-faults", "iteration=1.0,seed=7"])
        assert code == 0
        assert "100.00% pass" in capsys.readouterr().out

    def test_inject_faults_persistent_exits_two(self, capsys):
        code = main(["validate", "--features", "wait", "--language", "c",
                     "--iterations", "1", "--no-cross", "--retries", "1",
                     "--inject-faults", "iteration=1.0,seed=7,persistent"])
        assert code == 2
        assert "harness_error" in capsys.readouterr().out

    def test_inject_faults_rejects_bad_spec(self, capsys):
        with pytest.raises(SystemExit):
            main(["validate", "--features", "wait", "--language", "c",
                  "--inject-faults", "warp=0.5"])
        assert "warp" in capsys.readouterr().err

    def test_rejects_bad_timeout(self, capsys):
        with pytest.raises(SystemExit):
            main(["validate", "--features", "wait", "--language", "c",
                  "--timeout-s", "0"])
        assert "must be > 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["serve", "submit", "status", "cancel",
                                     "tail"])
def test_removed_server_commands_are_invalid_choices(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "x"])
    assert exit_info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["tree", "closures"])
def test_removed_backend_option_is_rejected(backend, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["validate", "--language", "c", "--backend", backend])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --backend" in capsys.readouterr().err


def test_validate_report_byte_identical_on_the_tree_walker(tmp_path, capsys,
                                                          tree_oracle):
    """The whole C suite at M=2 renders the same text report on the
    production interpreter and on the reference tree walker."""
    args = ["validate", "--language", "c", "--iterations", "2", "--output"]
    assert main(args + [str(tmp_path / "closures.txt")]) == 0
    with tree_oracle():
        assert main(args + [str(tmp_path / "tree.txt")]) == 0
    capsys.readouterr()
    closures = (tmp_path / "closures.txt").read_bytes()
    assert closures and closures == (tmp_path / "tree.txt").read_bytes()


class TestTitanCommand:
    def test_titan_sweep(self, capsys):
        assert main(["titan", "--nodes", "6", "--sample", "2",
                     "--degraded", "0.34"]) == 0
        out = capsys.readouterr().out
        assert "node" in out and "checks flagged" in out

    def test_titan_quarantine_summary(self, capsys):
        assert main(["titan", "--nodes", "4", "--sample", "4",
                     "--degraded", "0.5", "--recheck", "1"]) == 0
        out = capsys.readouterr().out
        assert "quarantined after 1 recheck(s)" in out
