"""Tests for the crash-safe campaign journal (``repro.journal``).

Layers under test, bottom up:

* the WAL itself — checksummed records, the torn-tail rule, campaign-key
  binding, resume generations;
* the codec — canonical campaign keys (execution knobs excluded), full
  result round-trips;
* the runner — replayed units are never re-run, reports come out
  byte-identical;
* the CLI — crash (injected torn write) and resume under every execution
  policy, ``journal inspect``, mismatch refusal;
* a real SIGKILL mid-campaign in a subprocess, resumed to a
  byte-identical report, and a real SIGINT that drains the campaign
  cleanly before the same resume;
* a SIGKILLed process-pool campaign leaves no pool worker behind.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.compiler import CompilerBehavior
from repro.harness import (
    HarnessConfig,
    ValidationRunner,
    render_csv,
    render_text,
)
from repro.journal import (
    JOURNAL_FORMAT,
    JournalCorruptError,
    JournalMismatchError,
    JournalWriter,
    canonicalize,
    decode_result,
    encode_result,
    fsck_journal,
    read_journal,
    record_line,
    render_fsck,
    titan_campaign_key,
    unit_keys,
    validate_campaign_key,
)
from repro.suite import openacc10_suite


CAMPAIGN = {"format": JOURNAL_FORMAT, "command": "validate", "suite": "1.0"}


def _small_config(**overrides) -> HarnessConfig:
    defaults = dict(iterations=2, languages=("c",),
                    feature_prefixes=["parallel.if", "update"])
    defaults.update(overrides)
    return HarnessConfig(**defaults)


# ---------------------------------------------------------------------------
# WAL: records, torn tails, campaign binding
# ---------------------------------------------------------------------------


class TestWal:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        writer = JournalWriter.create(path, CAMPAIGN)
        writer.append("a:c", {"x": 1})
        writer.append("b:c", {"y": [1, 2]})
        writer.close()
        loaded = read_journal(path)
        assert loaded.campaign == CAMPAIGN
        assert loaded.records == {"a:c": {"x": 1}, "b:c": {"y": [1, 2]}}
        assert loaded.resumes == 0
        assert loaded.torn_bytes == 0

    def test_last_record_wins_for_duplicate_unit(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        writer = JournalWriter.create(path, CAMPAIGN)
        writer.append("a:c", {"x": 1})
        writer.append("a:c", {"x": 2})
        writer.close()
        assert read_journal(path).records == {"a:c": {"x": 2}}

    def test_torn_tail_tolerated_and_truncated_on_resume(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        writer = JournalWriter.create(path, CAMPAIGN)
        writer.append("a:c", {"x": 1})
        writer.close()
        line = record_line({"type": "unit", "unit": "b:c", "payload": {}})
        with open(path, "ab") as handle:
            handle.write(line[: len(line) // 2])  # the crash artifact
        loaded = read_journal(path)
        assert loaded.records == {"a:c": {"x": 1}}
        assert loaded.torn_bytes == len(line) // 2
        resumed = JournalWriter.resume(path, CAMPAIGN)
        resumed.append("b:c", {"x": 2})
        resumed.close()
        healed = read_journal(path)
        assert healed.torn_bytes == 0
        assert healed.records == {"a:c": {"x": 1}, "b:c": {"x": 2}}
        assert healed.resumes == 1 and healed.generation == 1

    def test_corruption_mid_file_is_refused(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        writer = JournalWriter.create(path, CAMPAIGN)
        writer.append("a:c", {"x": 1})
        writer.append("b:c", {"x": 2})
        writer.close()
        with open(path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        lines[1] = lines[1].replace(b'"x"', b'"y"')  # tamper, keep checksum
        with open(path, "wb") as handle:
            handle.writelines(lines)
        with pytest.raises(JournalCorruptError, match="corruption"):
            read_journal(path)
        with pytest.raises(JournalCorruptError):
            JournalWriter.resume(path, CAMPAIGN)

    def test_missing_or_torn_header_is_refused(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        with pytest.raises(JournalCorruptError, match="empty"):
            read_journal(str(empty))
        torn = tmp_path / "torn.jsonl"
        torn.write_bytes(record_line(
            {"type": "header", "format": JOURNAL_FORMAT, "campaign": {}}
        )[:10])
        with pytest.raises(JournalCorruptError, match="header"):
            read_journal(str(torn))

    def test_wrong_format_tag_is_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(record_line(
            {"type": "header", "format": "other/v9", "campaign": {}}))
        with pytest.raises(JournalCorruptError, match="header"):
            read_journal(str(path))

    def test_resume_refuses_mismatched_campaign(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        JournalWriter.create(path, CAMPAIGN).close()
        other = dict(CAMPAIGN, suite="combinations")
        with pytest.raises(JournalMismatchError, match="suite"):
            JournalWriter.resume(path, other)

    def test_resume_generations_accumulate(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        JournalWriter.create(path, CAMPAIGN).close()
        for expected in (1, 2, 3):
            writer = JournalWriter.resume(path, CAMPAIGN)
            assert writer.generation == expected
            writer.close()


# ---------------------------------------------------------------------------
# codec: campaign keys and result round-trips
# ---------------------------------------------------------------------------


class TestCodec:
    def test_canonicalize_json_safe(self):
        value = canonicalize({"s": frozenset({"b", "a"}), "t": (1, 2)})
        assert value == {"s": ["a", "b"], "t": [1, 2]}

    def test_campaign_key_ignores_execution_knobs(self):
        behavior = CompilerBehavior()
        serial = validate_campaign_key(
            "1.0", behavior, _small_config(policy="serial", workers=1))
        process = validate_campaign_key(
            "1.0", behavior, _small_config(policy="process", workers=8,
                                           compile_cache=False))
        # the engine guarantees byte-identical reports across policies, so
        # a resume may switch policy — the key must not pin it
        assert serial == process

    def test_campaign_key_without_fault_plan_is_stable(self):
        # journals written by earlier releases must still resume: the key
        # of a fault-free config is pinned to the value those releases
        # wrote into journal headers
        import hashlib
        import json

        key = validate_campaign_key("1.0", CompilerBehavior(),
                                    _small_config())
        assert key["config"] == {
            "fault_plan": None, "feature_prefixes": ["parallel.if", "update"],
            "features": None, "iterations": 2, "languages": ["c"],
            "lint": False, "max_steps": 2000000, "retries": 0,
            "rng_seed": 20140519, "run_cross": True,
            "template_timeout_s": None,
        }
        body = json.dumps(canonicalize(key), sort_keys=True,
                          separators=(",", ":"))
        assert hashlib.sha256(body.encode("utf-8")).hexdigest() == (
            "923daa73237cba5e1171484efe51e1dec7d8d8ae308e73f48af5f1334d64b3e6")

    def test_campaign_key_pins_what_changes_results(self):
        behavior = CompilerBehavior()
        base = validate_campaign_key("1.0", behavior, _small_config())
        assert base != validate_campaign_key(
            "1.0", behavior, _small_config(iterations=5))
        assert base != validate_campaign_key(
            "1.0", CompilerBehavior(name="demo", version="9",
                                    broken_reductions=frozenset({"+"})),
            _small_config())
        assert base != validate_campaign_key("combinations", behavior,
                                             _small_config())

    def test_titan_campaign_key_pins_cluster_shape(self):
        config = HarnessConfig(iterations=1, run_cross=False,
                               languages=("c",))
        base = titan_campaign_key(config, nodes=8, degraded=0.25,
                                  seed=2012, sample=4, recheck=1)
        assert base != titan_campaign_key(config, nodes=16, degraded=0.25,
                                          seed=2012, sample=4, recheck=1)
        assert base != titan_campaign_key(config, nodes=8, degraded=0.25,
                                          seed=7, sample=4, recheck=1)

    def test_result_roundtrip_preserves_report_bytes(self):
        suite = openacc10_suite()
        behavior = CompilerBehavior(name="demo", version="1",
                                    broken_reductions=frozenset({"+"}))
        config = _small_config(
            feature_prefixes=["parallel.if", "loop.reduction"])
        runner = ValidationRunner(behavior, config)
        report = runner.run_suite(suite)
        templates = [r.template for r in report.results]
        decoded = [
            decode_result(encode_result(r), t)
            for r, t in zip(report.results, templates)
        ]
        clone = type(report)(compiler_label=report.compiler_label,
                             config=config, results=decoded)
        assert render_text(clone) == render_text(report)
        assert render_csv(clone) == render_csv(report)

    def test_result_roundtrip_preserves_executed(self):
        report = ValidationRunner(config=_small_config(iterations=3)) \
            .run_suite(openacc10_suite())
        executed = []
        for result in report.results:
            decoded = decode_result(encode_result(result), result.template)
            for phase, back in ((result.functional, decoded.functional),
                                (result.cross, decoded.cross)):
                if phase is not None:
                    assert back.executed == phase.executed
                    executed.append(back.executed)
        assert 1 in executed  # seed-independent phases ran once

    def test_payload_without_executed_decodes_as_every_iteration(self):
        result = ValidationRunner(config=_small_config(iterations=3)) \
            .run_suite(openacc10_suite()).results[0]
        payload = encode_result(result)
        for phase in (payload["functional"], payload["cross"]):
            if phase is not None:
                del phase["executed"]
        decoded = decode_result(payload, result.template)
        assert decoded.functional.executed == 3
        assert decoded.functional.iterations == result.functional.iterations

    def test_unit_keys_disambiguate_duplicates(self):
        suite = openacc10_suite()
        templates = list(suite.select(languages=("c",),
                                      prefixes=["parallel.if"]))
        keys = unit_keys(templates + templates)
        assert len(keys) == len(set(keys))


# ---------------------------------------------------------------------------
# runner: replay means *never re-run*
# ---------------------------------------------------------------------------


class TestRunnerResume:
    def test_full_journal_replays_without_running(self, tmp_path, monkeypatch):
        suite = openacc10_suite()
        behavior = CompilerBehavior()
        config = _small_config()
        campaign = validate_campaign_key("1.0", behavior, config)
        path = str(tmp_path / "j.jsonl")

        journal = JournalWriter.create(path, campaign)
        first = ValidationRunner(behavior, config).run_suite(
            suite, journal=journal)
        journal.close()

        calls = []
        real = ValidationRunner.run_template

        def counting(self, template):
            calls.append(template.name)
            return real(self, template)

        monkeypatch.setattr(ValidationRunner, "run_template", counting)
        journal = JournalWriter.resume(path, campaign)
        second = ValidationRunner(behavior, config).run_suite(
            suite, journal=journal)
        journal.close()
        assert calls == []  # every unit replayed, none re-run
        assert render_text(second) == render_text(first)
        assert render_csv(second) == render_csv(first)

    def test_journal_written_before_replication_resumes(self, tmp_path,
                                                        monkeypatch):
        # written by the harness when it still executed every iteration
        # (reference compiler, M=3, features parallel.if and update in C);
        # its phases carry no "executed" key
        import shutil

        data = os.path.join(os.path.dirname(__file__), "data",
                            "journal_v1_without_executed.jsonl")
        path = str(tmp_path / "old.jsonl")
        shutil.copyfile(data, path)
        suite = openacc10_suite()
        behavior = CompilerBehavior()
        config = _small_config(iterations=3)
        campaign = validate_campaign_key("1.0", behavior, config)

        calls = []
        real = ValidationRunner.run_template

        def counting(self, template):
            calls.append(template.name)
            return real(self, template)

        monkeypatch.setattr(ValidationRunner, "run_template", counting)
        journal = JournalWriter.resume(path, campaign)
        resumed = ValidationRunner(behavior, config).run_suite(
            suite, journal=journal)
        journal.close()
        assert calls == []  # the campaign key still matches: all replayed
        monkeypatch.undo()
        fresh = ValidationRunner(behavior, config).run_suite(suite)
        assert render_text(resumed) == render_text(fresh)
        assert render_csv(resumed) == render_csv(fresh)
        metrics = resumed.metrics
        assert metrics.programs_executed == metrics.iterations_run == 30
        assert fresh.metrics.programs_executed == 10

    def test_partial_journal_runs_only_missing_units(self, tmp_path,
                                                     monkeypatch):
        suite = openacc10_suite()
        behavior = CompilerBehavior()
        config = _small_config()
        campaign = validate_campaign_key("1.0", behavior, config)
        path = str(tmp_path / "j.jsonl")

        journal = JournalWriter.create(path, campaign)
        baseline = ValidationRunner(behavior, config).run_suite(
            suite, journal=journal)
        journal.close()
        total = len(baseline.results)
        assert total >= 4

        # rebuild a journal holding only the first half of the units
        templates = [r.template for r in baseline.results]
        keys = unit_keys(templates)
        half = total // 2
        partial_path = str(tmp_path / "partial.jsonl")
        partial = JournalWriter.create(partial_path, campaign)
        for key, result in list(zip(keys, baseline.results))[:half]:
            partial.append(key, encode_result(result))
        partial.close()

        calls = []
        real = ValidationRunner.run_template

        def counting(self, template):
            calls.append(template.name)
            return real(self, template)

        monkeypatch.setattr(ValidationRunner, "run_template", counting)
        journal = JournalWriter.resume(partial_path, campaign)
        resumed = ValidationRunner(behavior, config).run_suite(
            suite, journal=journal)
        journal.close()
        assert len(calls) == total - half  # exactly the missing units ran
        assert render_text(resumed) == render_text(baseline)
        # and the journal is now complete: a further resume runs nothing
        assert len(read_journal(partial_path).records) == total

    def test_drain_keeps_journal_consistent(self, tmp_path):
        """Cancelling the campaign's token mid-campaign stops dispatch
        after the unit in flight; everything journaled so far replays on
        resume."""
        from repro.harness import CampaignInterrupted, CancelToken

        suite = openacc10_suite()
        behavior = CompilerBehavior()
        config = _small_config()
        campaign = validate_campaign_key("1.0", behavior, config)
        path = str(tmp_path / "j.jsonl")

        journal = JournalWriter.create(path, campaign)
        real_append = journal.append
        token = CancelToken()

        def draining_append(unit, payload):
            real_append(unit, payload)
            if len(journal.records) >= 2:
                token.cancel()

        journal.append = draining_append
        with pytest.raises(CampaignInterrupted):
            ValidationRunner(behavior, config).run_suite(
                suite, journal=journal, cancel=token)
        journal.close()

        loaded = read_journal(path)
        assert len(loaded.records) == 2
        assert loaded.torn_bytes == 0  # a drain is a *clean* stop

        journal = JournalWriter.resume(path, campaign)
        resumed = ValidationRunner(behavior, config).run_suite(
            suite, journal=journal)
        journal.close()
        fresh = ValidationRunner(behavior, config).run_suite(suite)
        assert render_text(resumed) == render_text(fresh)


# ---------------------------------------------------------------------------
# CLI: crash + resume under every policy, inspect, mismatch
# ---------------------------------------------------------------------------


def _validate_args(tmp_path, policy="serial", **extra):
    args = ["validate", "--features", "parallel.if", "update",
            "--language", "c", "--iterations", "2",
            "--policy", policy]
    if policy != "serial":
        args += ["--workers", "2"]
    for flag, value in extra.items():
        args += [f"--{flag.replace('_', '-')}", str(value)]
    return args


class TestCliResume:
    @pytest.mark.parametrize("policy", ["serial", "process"])
    def test_torn_write_crash_then_resume_byte_identical(
            self, tmp_path, policy, capsys):
        reference = str(tmp_path / "reference.txt")
        assert main(_validate_args(tmp_path, policy,
                                   output=reference)) == 0

        journal = str(tmp_path / "j.jsonl")
        crashed = str(tmp_path / "crashed.txt")
        code = main(_validate_args(
            tmp_path, policy, output=crashed, journal=journal,
            inject_faults="journal=1.0,seed=11"))
        assert code == 3  # interrupted but resumable
        assert "resume with" in capsys.readouterr().err
        assert not os.path.exists(crashed)  # no half-written report

        resumed = str(tmp_path / "resumed.txt")
        code = main(_validate_args(
            tmp_path, policy, output=resumed, resume=journal,
            inject_faults="journal=1.0,seed=11"))
        assert code == 0
        with open(reference) as a, open(resumed) as b:
            assert a.read() == b.read()

    def test_resume_may_switch_policy(self, tmp_path):
        journal = str(tmp_path / "j.jsonl")
        serial_out = str(tmp_path / "serial.txt")
        assert main(_validate_args(tmp_path, "serial", output=serial_out,
                                   journal=journal)) == 0
        process_out = str(tmp_path / "process.txt")
        assert main(_validate_args(tmp_path, "process", output=process_out,
                                   resume=journal)) == 0
        with open(serial_out) as a, open(process_out) as b:
            assert a.read() == b.read()

    def test_mismatched_resume_exits_nonzero(self, tmp_path, capsys):
        journal = str(tmp_path / "j.jsonl")
        assert main(_validate_args(tmp_path, journal=journal)) == 0
        capsys.readouterr()
        args = ["validate", "--features", "data", "--language", "c",
                "--iterations", "2", "--resume", journal]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "different campaign" in err

    def test_corrupt_resume_exits_nonzero(self, tmp_path, capsys):
        journal = str(tmp_path / "j.jsonl")
        assert main(_validate_args(tmp_path, journal=journal)) == 0
        with open(journal, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        lines[1] = b'{"tampered": true}\n'
        with open(journal, "wb") as handle:
            handle.writelines(lines)
        capsys.readouterr()
        assert main(_validate_args(tmp_path, resume=journal)) == 1
        assert "journal error" in capsys.readouterr().err

    def test_journal_and_resume_are_mutually_exclusive(self, tmp_path,
                                                       capsys):
        with pytest.raises(SystemExit):
            main(_validate_args(tmp_path, journal="a.jsonl",
                                resume="b.jsonl"))

    def test_journal_inspect(self, tmp_path, capsys):
        journal = str(tmp_path / "j.jsonl")
        assert main(_validate_args(tmp_path, journal=journal)) == 0
        capsys.readouterr()
        assert main(["journal", "inspect", journal, "--units"]) == 0
        out = capsys.readouterr().out
        assert JOURNAL_FORMAT in out
        assert "validate" in out
        assert "clean shutdown" in out
        assert "parallel.if:c" in out

    def test_journal_inspect_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not a journal\n")
        assert main(["journal", "inspect", str(path)]) == 1
        assert "journal error" in capsys.readouterr().err

    def test_journal_fsck_cli(self, tmp_path, capsys):
        journal = str(tmp_path / "j.jsonl")
        assert main(_validate_args(tmp_path, journal=journal)) == 0
        capsys.readouterr()
        # clean: exit 0, verdict on stdout, salvageable units listed
        assert main(["journal", "fsck", journal, "--units"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "parallel.if:c" in out
        # torn tail: still exit 0 (resume truncates it)
        with open(journal, "ab") as handle:
            handle.write(b"half a record")
        assert main(["journal", "fsck", journal]) == 0
        assert "salvageable" in capsys.readouterr().out
        # mid-file corruption: exit 1, named verdict
        with open(journal, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        lines[1] = b'{"tampered": true}\n'
        with open(journal, "wb") as handle:
            handle.writelines(lines)
        assert main(["journal", "fsck", journal]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_titan_crash_then_resume_byte_identical(self, tmp_path, capsys):
        base_args = ["titan", "--nodes", "6", "--sample", "3"]
        assert main(base_args) == 0
        reference = capsys.readouterr().out

        journal = str(tmp_path / "tj.jsonl")
        code = main(base_args + ["--journal", journal,
                                 "--inject-faults", "journal=1.0,seed=5"])
        assert code == 3
        capsys.readouterr()
        code = main(base_args + ["--resume", journal,
                                 "--inject-faults", "journal=1.0,seed=5"])
        assert code == 0
        assert capsys.readouterr().out == reference

    def test_titan_resume_replays_every_check(self, tmp_path, capsys):
        from repro.obs import read_trace
        from repro.obs.live import read_live

        base_args = ["titan", "--nodes", "6", "--sample", "3"]
        journal = str(tmp_path / "tj.jsonl")
        assert main(base_args + ["--journal", journal]) == 0
        reference = capsys.readouterr().out

        trace = tmp_path / "t.jsonl"
        stream = tmp_path / "s.ndjson"
        assert main(base_args + ["--resume", journal, "--trace", str(trace),
                                 "--live-stream", str(stream)]) == 0
        out = capsys.readouterr().out
        assert out == reference + f"wrote {trace}\n"
        # 6 sweep checks and 2 triage re-checks; every template of every
        # check decoded from the journal and none re-run
        recorded = read_trace(str(trace))
        checks = [e for e in recorded.events if e.name == "titan.checked"]
        assert len(checks) == 8
        units = 8 * len(_titan_selection())
        replayed = [e for e in recorded.events
                    if e.name == "journal.replayed"]
        assert sum(e.fields["units"] for e in replayed) == units
        assert not recorded.spans_named("template")
        finished = read_live(str(stream)).events("unit.finished")
        assert len(finished) == units
        assert all(r["fields"]["replayed"] is True for r in finished)

    def test_titan_resume_mid_check_runs_only_the_rest(self, tmp_path,
                                                       capsys):
        from repro.obs import read_trace

        base_args = ["titan", "--nodes", "6", "--sample", "3"]
        journal = tmp_path / "tj.jsonl"
        assert main(base_args + ["--journal", str(journal)]) == 0
        reference = capsys.readouterr().out
        per_check = len(_titan_selection())
        # keep the header, the first check and 10 templates of the
        # second, then a torn half record: killed part-way through a check
        lines = journal.read_bytes().splitlines(keepends=True)
        kept = 1 + per_check + 10
        torn = lines[kept][: len(lines[kept]) // 2]
        journal.write_bytes(b"".join(lines[:kept]) + torn)
        total = len(lines) - 1

        trace = tmp_path / "t.jsonl"
        assert main(base_args + ["--resume", str(journal),
                                 "--trace", str(trace)]) == 0
        assert capsys.readouterr().out == reference + f"wrote {trace}\n"
        recorded = read_trace(str(trace))
        replayed = [e.fields["units"] for e in recorded.events
                    if e.name == "journal.replayed"]
        assert replayed == [per_check, 10]
        assert len(recorded.spans_named("template")) == total - kept + 1
        assert fsck_journal(str(journal)).clean

    def test_titan_resume_refuses_check_level_journal(self, tmp_path,
                                                      capsys):
        # a journal written when a whole node/stack check was one unit:
        # its key lacks "units", and resuming it must not silently re-run
        # every check next to the old records
        base_args = ["titan", "--nodes", "6", "--sample", "3"]
        journal = tmp_path / "tj.jsonl"
        assert main(base_args + ["--journal", str(journal)]) == 0
        capsys.readouterr()
        campaign = read_journal(str(journal)).campaign
        del campaign["units"]
        journal.write_bytes(
            record_line({"type": "header", "format": JOURNAL_FORMAT,
                         "campaign": campaign})
            + record_line({"type": "unit", "unit": "sweep:node0:openacc-cuda",
                           "payload": {"node": 0, "results": []}}))
        before = journal.read_bytes()
        assert main(base_args + ["--resume", str(journal)]) == 1
        assert "journal error" in capsys.readouterr().err
        assert journal.read_bytes() == before


def _titan_selection():
    """The templates of one ``repro titan`` node check."""
    return openacc10_suite().select(languages=("c",),
                                    prefixes=["parallel", "update"])


# ---------------------------------------------------------------------------
# the real thing: SIGKILL mid-campaign, resume, byte-identical report
# ---------------------------------------------------------------------------


def _subprocess_env() -> dict:
    """The environment for a ``python -m repro`` child of this test run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
        + env.get("PYTHONPATH", "").split(os.pathsep))
    return env


def _wait_for_units(journal: str, count: int) -> None:
    """Block until ``journal`` durably holds ``count`` unit records."""
    deadline = time.time() + 60
    while time.time() < deadline:
        try:
            if len(read_journal(journal).records) >= count:
                return
        except (OSError, JournalCorruptError):
            pass
        time.sleep(0.02)
    pytest.fail(f"campaign never journaled {count} unit(s)")


class TestSigkillResume:
    def test_sigkill_then_resume_byte_identical(self, tmp_path):
        env = _subprocess_env()
        journal = str(tmp_path / "j.jsonl")
        reference = str(tmp_path / "reference.txt")
        resumed = str(tmp_path / "resumed.txt")
        base = [sys.executable, "-m", "repro", "validate",
                "--iterations", "3", "--language", "c"]

        assert subprocess.run(
            base + ["--output", reference], env=env,
            stdout=subprocess.DEVNULL).returncode == 0

        victim = subprocess.Popen(
            base + ["--journal", journal, "--output",
                    str(tmp_path / "never.txt")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            # wait until some units are durably journaled, then SIGKILL
            _wait_for_units(journal, 3)
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()
        assert victim.returncode == -signal.SIGKILL

        loaded = read_journal(journal)  # tolerates whatever the kill left
        already = len(loaded.records)
        assert already >= 3

        proc = subprocess.run(
            base + ["--resume", journal, "--output", resumed], env=env,
            stdout=subprocess.DEVNULL)
        assert proc.returncode == 0
        with open(reference) as a, open(resumed) as b:
            assert a.read() == b.read()
        healed = read_journal(journal)
        assert healed.resumes == 1
        assert healed.torn_bytes == 0
        assert len(healed.records) >= already  # nothing was thrown away


class TestSigintDrain:
    def test_sigint_drains_then_resume_byte_identical(self, tmp_path):
        """A console interrupt cancels the command's own token: in-flight
        work finishes, the journal ends clean, the CLI exits 3 with the
        resume hint, and the resume renders the uninterrupted report."""
        env = _subprocess_env()
        journal = str(tmp_path / "j.jsonl")
        reference = str(tmp_path / "reference.csv")
        resumed = str(tmp_path / "resumed.csv")
        base = [sys.executable, "-m", "repro", "validate",
                "--iterations", "3", "--language", "c", "--format", "csv"]

        assert subprocess.run(
            base + ["--output", reference], env=env,
            stdout=subprocess.DEVNULL).returncode == 0

        victim = subprocess.Popen(
            base + ["--journal", journal, "--output",
                    str(tmp_path / "never.csv")],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        try:
            # a journaled unit means the drain handler is installed
            _wait_for_units(journal, 1)
            victim.send_signal(signal.SIGINT)
            _, err = victim.communicate(timeout=60)
        finally:
            if victim.poll() is None:
                victim.kill()
        assert victim.returncode == 3, err
        assert f"--resume {journal}" in err
        loaded = read_journal(journal)
        assert loaded.torn_bytes == 0  # a drain is a clean stop
        assert loaded.records

        proc = subprocess.run(
            base + ["--resume", journal, "--output", resumed], env=env,
            stdout=subprocess.DEVNULL)
        assert proc.returncode == 0
        with open(reference, "rb") as a, open(resumed, "rb") as b:
            assert a.read() == b.read()


def _proc_stat(pid: int) -> list:
    """``/proc/PID/stat`` fields after the command name (state, ppid...)."""
    with open(f"/proc/{pid}/stat") as handle:
        return handle.read().rsplit(")", 1)[1].split()


def _children(pid: int) -> list:
    children = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if int(_proc_stat(int(entry))[1]) == pid:
                    children.append(int(entry))
            except OSError:
                pass
    return children


def _running(pid: int) -> bool:
    try:
        return _proc_stat(pid)[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the process table from /proc")
class TestSigkillPoolWorkers:
    def test_pool_workers_exit_with_a_killed_campaign(self, tmp_path):
        """A SIGKILLed campaign cannot shut its process pool down; the
        workers must notice the lost parent and exit on their own."""
        journal = str(tmp_path / "j.jsonl")
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro", "validate", "--iterations", "5",
             "--language", "c", "--policy", "process", "--workers", "2",
             "--journal", journal, "--output", str(tmp_path / "never.txt")],
            env=_subprocess_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            _wait_for_units(journal, 1)
            workers = _children(victim.pid)
            victim.send_signal(signal.SIGKILL)
            victim.wait(timeout=30)
        finally:
            if victim.poll() is None:
                victim.kill()
        assert workers, "the campaign's process pool never started"
        deadline = time.time() + 10
        while time.time() < deadline and any(map(_running, workers)):
            time.sleep(0.05)
        survivors = [pid for pid in workers if _running(pid)]
        for pid in survivors:  # do not leak them into the rest of the run
            os.kill(pid, signal.SIGKILL)
        assert not survivors, f"orphaned pool workers: {survivors}"


# ---------------------------------------------------------------------------
# fsck: the diagnostic counterpart of the strict loader
# ---------------------------------------------------------------------------


class TestFsck:
    def _journal(self, tmp_path, units=("a:c", "b:c")):
        path = str(tmp_path / "c.journal")
        writer = JournalWriter.create(path, CAMPAIGN)
        for unit in units:
            writer.append(unit, {"unit": unit})
        writer.close()
        return path

    def test_clean_journal_is_clean(self, tmp_path):
        path = self._journal(tmp_path)
        report = fsck_journal(path)
        assert report.clean and report.resumable
        assert set(report.salvageable_units()) == {"a:c", "b:c"}
        assert "clean" in render_fsck(report)

    def test_torn_tail_is_salvageable_not_clean(self, tmp_path):
        path = self._journal(tmp_path)
        line = record_line({"type": "unit", "unit": "x:c", "payload": {}})
        with open(path, "ab") as handle:
            handle.write(line[: len(line) // 2])
        report = fsck_journal(path)
        assert not report.clean and report.resumable
        assert report.status == "torn"
        assert report.bad_bytes == len(line) // 2
        assert "torn tail" in report.detail
        assert set(report.salvageable_units()) == {"a:c", "b:c"}
        assert "salvageable" in render_fsck(report)
        # the verdict matches what resume actually does
        JournalWriter.resume(path, CAMPAIGN).close()
        assert fsck_journal(path).resumable

    def test_mid_file_corruption_reported_with_intact_prefix(self, tmp_path):
        path = self._journal(tmp_path, units=("a:c", "b:c", "c:c"))
        with open(path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"b:c"', b'"B:C"')  # breaks checksum
        with open(path, "wb") as handle:
            handle.writelines(lines)
        report = fsck_journal(path)
        assert not report.resumable
        assert report.status == "corrupt"
        assert report.first_bad_line == 3
        assert "corruption" in report.detail
        # the intact prefix before the bad line is still counted, but a
        # refused resume salvages nothing
        assert set(report.records) == {"a:c"}
        assert report.salvageable_units() == {}
        assert "CORRUPT" in render_fsck(report)
        with pytest.raises(JournalCorruptError):
            read_journal(path)

    def test_missing_and_headerless_files(self, tmp_path):
        missing = fsck_journal(str(tmp_path / "nope.journal"))
        assert not missing.resumable
        assert missing.status == "missing"
        empty = tmp_path / "empty.journal"
        empty.write_bytes(b"")
        scan = fsck_journal(str(empty))
        assert scan.status == "corrupt" and "empty" in scan.detail

    @pytest.mark.parametrize("record, fault", [
        ({"type": "unit", "payload": {}}, "'unit' is not a string"),
        ({"type": "unit", "unit": ["a"], "payload": {}},
         "'unit' is not a string"),
        ({"type": "unit", "unit": "a:c", "payload": [1]},
         "'payload' is not an object"),
        ({"type": "resume", "generation": "x"},
         "'generation' is not an integer"),
    ])
    def test_checksummed_record_with_wrong_fields_is_corrupt(
            self, tmp_path, capsys, record, fault):
        # the checksum is valid, so the bytes were written whole: the
        # record is corruption, not a torn tail, even as the last line
        path = tmp_path / "fields.journal"
        path.write_bytes(record_line({"type": "header",
                                      "format": JOURNAL_FORMAT,
                                      "campaign": CAMPAIGN})
                         + record_line(record))
        report = fsck_journal(str(path))
        assert report.status == "corrupt"
        assert report.first_bad_line == 2
        assert report.detail.startswith("line 2: ") and fault in report.detail
        assert main(["journal", "fsck", str(path)]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out and fault in out
        with pytest.raises(JournalCorruptError, match=fault):
            read_journal(str(path))


# ---------------------------------------------------------------------------
# fsck's verdict is resume's verdict, on every damage of a real journal
# ---------------------------------------------------------------------------


def _damaged_variants(data: bytes):
    """(label, bytes-or-None) pairs: every truncation point, one flipped
    byte at the start, middle and end of each line, a dropped or swapped
    header, an empty file and a missing one (None)."""
    for cut in range(len(data)):
        yield f"truncated at byte {cut}", data[:cut]
    lines = data.splitlines(keepends=True)
    start = 0
    for number, line in enumerate(lines, start=1):
        for pos in sorted({0, len(line) // 2, len(line) - 1}):
            flipped = bytearray(data)
            flipped[start + pos] ^= 0x01
            yield f"line {number} byte {pos} flipped", bytes(flipped)
        start += len(line)
    yield "header dropped", b"".join(lines[1:])
    yield "header swapped", b"".join([lines[1], lines[0]] + lines[2:])
    yield "empty", b""
    yield "missing", None


class TestFsckAgreesWithResume:
    def _journal_bytes(self, tmp_path) -> bytes:
        path = str(tmp_path / "real.journal")
        writer = JournalWriter.create(path, CAMPAIGN)
        writer.append("a:c", {"unit": "a:c"})
        writer.append("b:c", {"unit": "b:c", "n": [1, 2]})
        writer.close()
        writer = JournalWriter.resume(path, CAMPAIGN)
        writer.append("c:c", {"unit": "c:c"})
        writer.append("a:c", {"unit": "a:c", "rerun": True})
        writer.close()
        with open(path, "rb") as handle:
            return handle.read()

    def test_resumable_exactly_when_resume_succeeds(self, tmp_path):
        data = self._journal_bytes(tmp_path)
        path = str(tmp_path / "damaged.journal")
        verdicts = set()
        for label, damaged in _damaged_variants(data):
            if os.path.exists(path):
                os.remove(path)
            if damaged is not None:
                with open(path, "wb") as handle:
                    handle.write(damaged)
            report = fsck_journal(path)
            try:
                writer = JournalWriter.resume(path, CAMPAIGN)
            except JournalCorruptError:
                assert not report.resumable, label
                assert report.salvageable_units() == {}, label
            else:
                writer.close()
                assert report.resumable, label
                assert report.salvageable_units() == writer.records, label
            verdicts.add(report.status)
        assert verdicts == {"ok", "torn", "corrupt", "missing"}
