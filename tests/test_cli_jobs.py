"""One ``vidi`` CLI over one job executor.

* drift — each run command's argparse dests are exactly its
  ``JOB_PARAMS`` names (plus ``cache_dir``), and ``vidi <kind> ARGV`` and
  ``vidi submit <kind> ARGV`` build identical params;
* parity — every kind run inline and through a daemon, both via the CLI,
  gives the same result (record bytes, replay validation digest and
  verdict, divergence, salvage, campaign trials digest);
* the run flags' CLI paths: flight recorder, fault injection, sharding
  at flight anchors and the kernel profile;
* the service edges: params validated at submit time (HTTP 400, nothing
  queued) and ``wait`` answered server-side in one request.
"""

from __future__ import annotations

import argparse
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.core import TraceFile
from repro.harness import jobs, worker_pool
from repro.harness.jobs import JOB_KINDS, JOB_PARAMS, JobParamError, check_job
from repro.tools import main
from repro.tools.cli import _job_params, build_parser

SUBMIT_DESTS = {"data_dir", "endpoint", "priority", "wait", "timeout"}


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _dests(parser: argparse.ArgumentParser) -> set:
    return {a.dest for a in parser._actions
            if not isinstance(a, argparse._HelpAction)}


# ----------------------------------------------------------------------
# drift: one argument builder per kind, named after the job params
# ----------------------------------------------------------------------

def test_run_commands_are_the_job_kinds_and_take_every_param():
    commands = _subcommands(build_parser())
    submit = _subcommands(commands["submit"])
    assert set(submit) == set(JOB_KINDS)
    for kind in JOB_KINDS:
        assert _dests(commands[kind]) == set(JOB_PARAMS[kind]) | {
            "cache_dir"}, kind
        assert _dests(submit[kind]) == set(JOB_PARAMS[kind]) | SUBMIT_DESTS


# Every flag either old parser accepted for the kind, and what it means.
ARGV = {
    "record": (["sha256", "-o", "r.trace", "--seed", "3", "--scale", "0.5",
                "--scheduler", "event", "--profile",
                "--inject", "store-bitflip",
                "--inject-seed", "4", "--flight-recorder",
                "--retain-words", "64", "--dedup-slots", "16",
                "--anchor-stride", "128"],
               {"app": "sha256", "save_to": "r.trace", "seed": 3,
                "scale": 0.5, "scheduler": "event", "profile": True,
                "inject": "store-bitflip", "inject_seed": 4,
                "flight_recorder": True, "flight_retain_words": 64,
                "flight_dedup_slots": 16, "flight_anchor_stride": 128}),
    "replay": (["dram_dma", "d.trace", "--jobs", "2", "--no-time-warp",
                "--salvage", "--inject", "worker-crash", "--inject-seed",
                "1", "--scheduler", "compiled"],
               {"app": "dram_dma", "trace_path": "d.trace", "jobs": 2,
                "no_time_warp": True,
                "salvage": True, "inject": "worker-crash", "inject_seed": 1,
                "scheduler": "compiled"}),
    "divergence": (["bnn", "--seed", "9", "--flight-recorder"],
                   {"app": "bnn", "seed": 9, "flight_recorder": True}),
    "salvage": (["bad.trace", "-o", "good.trace"],
                {"trace_path": "bad.trace", "save_to": "good.trace"}),
    "campaign": (["--app", "sha256", "--crash-app", "sha256", "--faults",
                  "5", "--seed", "2",
                  "--no-flight-recorder", "--scheduler", "compiled"],
                 {"app": "sha256", "crash_app": "sha256", "n_faults": 5,
                  "seed": 2, "flight_recorder": False,
                  "scheduler": "compiled"}),
}


@pytest.mark.parametrize("kind", JOB_KINDS)
def test_inline_and_submit_build_identical_params(kind):
    argv, expected = ARGV[kind]
    parser = build_parser()
    inline = _job_params(kind, parser.parse_args([kind] + argv))
    submitted = _job_params(kind, parser.parse_args(["submit", kind] + argv))
    assert inline == submitted == expected
    check_job(kind, expected)


def test_old_submit_spellings_build_the_same_params():
    parser = build_parser()
    for old, new in (
            (["record", "--app", "sha256", "--save-to", "a"],
             ["record", "sha256", "-o", "a"]),
            (["replay", "--app", "sha256", "--trace-path", "t"],
             ["replay", "sha256", "t"]),
            (["salvage", "--trace-path", "t"], ["salvage", "t"])):
        kind = old[0]
        assert _job_params(kind, parser.parse_args(["submit"] + old)) == \
            _job_params(kind, parser.parse_args(new))
    args = parser.parse_args(["submit", "--data-dir", "d", "--wait",
                              "campaign", "--flight-recorder"])
    assert (args.data_dir, args.wait) == ("d", True)
    assert _job_params("campaign", args) == {"flight_recorder": True}


# ----------------------------------------------------------------------
# validation: bad params never reach a worker
# ----------------------------------------------------------------------

INVALID = [
    ("record", {"app": "sha256", "sede": 7}, "unknown record job param"),
    ("record", {"app": "sha256", "seed": "x"}, "must be int"),
    ("record", {"app": "sha256", "seed": True}, "must be int"),
    ("record", {"app": "sha256", "seed": None}, "must be int"),
    ("record", {"seed": 1}, "needs 'app'"),
    ("replay", {"app": "sha256"}, "needs 'trace_path'"),
    ("salvage", {}, "needs 'trace_path'"),
    ("replay", {"app": "sha256", "trace_path": "t", "trace_hex": "00"},
     "unknown replay job param"),
    ("record", {"app": "sha256", "compress": True},
     "unknown record job param"),
    ("record", {"app": "sha256", "scheduler": "speculative"},
     "must be one of event, compiled"),
    ("campaign", {"batch_size": 4}, "unknown campaign job param"),
    ("replay", {"app": "sha256", "trace_path": "t", "jobs": 2,
                "checkpoints": "c"}, "unknown replay job param"),
    ("replay", {"app": "sha256", "trace_path": "t",
                "inject": "worker-crash"}, "need sharded mode"),
    ("campaign", {"n_faults": 2.5}, "must be int"),
]


@pytest.mark.parametrize("kind,params,message", INVALID)
def test_execute_job_rejects_invalid_params(kind, params, message):
    with pytest.raises(JobParamError, match=message):
        jobs.execute_job(kind, params)


def test_jobs_sparse_param_sets_pass():
    for kind, params in (
            ("record", {"app": "sha256", "seed": 1, "scale": 4.0,
                        "scheduler": "compiled", "save_to": "x"}),
            ("replay", {"app": "bnn", "trace_path": "x",
                        "scheduler": "compiled"}),
            ("divergence", {"app": "bnn", "seed": 2,
                            "scheduler": "compiled"})):
        check_job(kind, params)


# ----------------------------------------------------------------------
# one daemon for the service-side tests
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    from repro.service.server import TraceService

    worker_pool.shutdown_pool()
    service = TraceService(tmp_path_factory.mktemp("svc"),
                           jobs=1).run_in_thread()
    yield service
    service.shutdown()
    worker_pool.shutdown_pool()


def test_submit_rejects_invalid_params_with_400(daemon):
    queued = daemon.queue.status()["jobs"]
    for kind, params, message in INVALID:
        req = urllib.request.Request(
            daemon.endpoint + "/submit", method="POST",
            data=json.dumps({"kind": kind, "params": params}).encode())
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req, timeout=30)
        assert info.value.code == 400
        assert message in json.loads(info.value.read())["error"]
    assert daemon.queue.status()["jobs"] == queued


def test_wait_is_one_blocking_status_request(daemon, monkeypatch):
    from repro.service.client import ServiceClient

    client = ServiceClient(data_dir=daemon.data_dir)
    paths = []
    request = client._request

    def counting(method, path, body=None):
        paths.append(path)
        return request(method, path, body)

    monkeypatch.setattr(client, "_request", counting)
    job_id = client.submit("record", {"app": "dram_dma", "seed": 1})
    t0 = time.monotonic()
    assert client.status(job_id)["state"] in ("queued", "running")
    for bad in ("nan", "-1"):       # never a blocking (or endless) wait
        assert client._request("GET", f"/status/{job_id}?wait={bad}")[
            "state"] in ("queued", "running")
    assert time.monotonic() - t0 < 0.5, "plain /status/<id> blocked"
    paths.clear()
    assert client.wait(job_id, timeout=120.0)["state"] == "done"
    assert len(paths) == 1 and paths[0].startswith(f"/status/{job_id}?wait=")


# ----------------------------------------------------------------------
# parity: `vidi <kind>` == `vidi submit <kind> --wait`
# ----------------------------------------------------------------------

def _inline(monkeypatch, capsys, argv):
    """Run ``vidi ARGV`` here; returns (exit code, the job's result)."""
    results = []
    execute = jobs.execute_job

    def capture(*args, **kwargs):
        results.append(execute(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(jobs, "execute_job", capture)
    code = main(argv)
    monkeypatch.setattr(jobs, "execute_job", execute)
    capsys.readouterr()
    return code, results[0]


def _submitted(capsys, daemon, argv):
    """Run ``vidi submit ARGV --wait``; returns (exit code, job result)."""
    code = main(["submit", argv[0], "--data-dir", str(daemon.data_dir)]
                + argv[1:] + ["--wait"])
    out = capsys.readouterr().out
    return code, json.loads(out.split("\n", 1)[1])


def test_every_kind_matches_inline_and_through_the_daemon(
        daemon, tmp_path, monkeypatch, capsys):
    local, remote = tmp_path / "local.trace", tmp_path / "remote.trace"
    record = ["record", "sha256", "--seed", "5", "--scale", "0.5"]
    code, inline = _inline(monkeypatch, capsys, record + ["-o", str(local)])
    assert code == 0
    code, result = _submitted(capsys, daemon, record + ["-o", str(remote)])
    assert code == 0
    assert local.read_bytes() == remote.read_bytes()
    assert inline.pop("saved_to") != result.pop("saved_to")
    assert inline == result

    bad = tmp_path / "bad.trace"
    assert main(["record", "sha256", "-o", str(bad), "--seed", "5",
                 "--inject", "blob-truncate:keep=0.6"]) == 0
    capsys.readouterr()
    for argv in (["replay", "sha256", str(local)],
                 ["replay", "sha256", str(bad), "--salvage"],
                 ["divergence", "sha256", "--seed", "6", "--scale", "0.5"],
                 ["salvage", str(bad)],
                 ["campaign", "--faults", "3", "--seed", "2",
                  "--crash-app", "sha256"]):
        inline = _inline(monkeypatch, capsys, argv)
        assert _submitted(capsys, daemon, argv) == inline, argv
        assert inline[1].get("clean", True), argv
    assert inline[1]["trials_sha256"] and inline[1]["faults"] == 3


# ----------------------------------------------------------------------
# run flags through the CLI
# ----------------------------------------------------------------------

def test_flight_recorder_with_retention_budget(tmp_path, capsys):
    path = tmp_path / "flight.trace"
    assert main(["record", "sha256", "-o", str(path), "--scale", "0.5",
                 "--flight-recorder", "--retain-words", "64"]) == 0
    assert "of 64 word(s) retained" in capsys.readouterr().out
    assert TraceFile.load(path).format_version == 3
    assert main(["replay", "sha256", str(path)]) == 0
    assert "no divergences" in capsys.readouterr().out


def test_inject_then_salvaging_replay(tmp_path, capsys):
    path = tmp_path / "bad.trace"
    assert main(["record", "sha256", "-o", str(path), "--scale", "0.5",
                 "--inject", "blob-truncate:keep=0.8"]) == 0
    assert "fault: blob-truncate: kept" in capsys.readouterr().out
    assert main(["replay", "sha256", str(path)]) == 2     # torn container
    assert main(["replay", "sha256", str(path), "--salvage"]) == 0
    assert "salvaged" in capsys.readouterr().out


def test_flight_trace_shards_across_two_workers(tmp_path, capsys):
    trace = tmp_path / "d.trace"
    assert main(["record", "dram_dma", "-o", str(trace), "--scale", "0.5",
                 "--flight-recorder", "--anchor-stride", "64"]) == 0
    capsys.readouterr()
    assert main(["replay", "dram_dma", str(trace)]) == 0
    sequential = capsys.readouterr().out.splitlines()[-1]
    assert main(["replay", "dram_dma", str(trace), "--jobs", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "2 segment(s)" in out[0]
    assert out[-1] == sequential
    flat = tmp_path / "flat.trace"        # save() keeps anchors: clear
    anchorless = TraceFile.load(trace)    # them for a one-segment copy
    anchorless.anchors = {}
    anchorless.save(flat)
    assert main(["replay", "dram_dma", str(flat), "--jobs", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "1 segment(s)" in out[0] and out[-1] == sequential
    torn = tmp_path / "torn.trace"
    torn.write_bytes(trace.read_bytes()[:-4096])
    assert main(["replay", "dram_dma", str(torn), "--salvage",
                 "--jobs", "2"]) == 0
    assert "2 segment(s)" in capsys.readouterr().out
    salvaged = tmp_path / "s.trace"       # salvage -o keeps the anchors
    assert main(["salvage", str(torn), "-o", str(salvaged)]) == 0
    assert main(["replay", "dram_dma", str(salvaged)]) == 0
    sequential = capsys.readouterr().out.splitlines()[-1]
    assert main(["replay", "dram_dma", str(salvaged), "--jobs", "2"]) == 0
    out = capsys.readouterr().out
    assert "2 segment(s)" in out and out.splitlines()[-1] == sequential


def test_profile_prints_kernel_shares(tmp_path, capsys):
    assert main(["record", "sha256", "-o", str(tmp_path / "p.trace"),
                 "--scale", "0.3", "--profile",
                 "--scheduler", "compiled"]) == 0
    out = capsys.readouterr().out
    assert "Kernel profile: hottest" in out
    assert "scheduler: compiled" in out
