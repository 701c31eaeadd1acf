"""Scheduling of backend calls across a run: one call pool, oldest issue
first, one issue of look-ahead, output in corpus order."""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context

import pytest

from rationale_miner import cli, miner
from rationale_miner.backends.scripted import ScriptedBackend
from rationale_miner.config import build_backend, load_config
from rationale_miner.corpus import clean_issue, enumerate_sentences, parse_issue
from rationale_miner.errors import TransportError
from rationale_miner.features import POLARITY_WORDS
from rationale_miner.miner import (
    ISSUE_RANK, REPLY_MEMORY, CallPool, in_issue_order, usable_cpus)

from conftest import ISSUES, REASON, SCRIPT, SHARING, sched_issue, write_gold, write_sharing
from recording import Recording, recorded, run_command
from stub_server import run_stub

def _issue_of(prompt: str) -> int:
    return int(re.search(r"q(\d+)z", prompt).group(1))


@pytest.mark.parametrize("command", ["mine", "extract", "pair"])
def test_output_is_independent_of_workers(corpus, command):
    tmp_path, config = corpus
    runs = [run_command(command, config, tmp_path / f"out-{workers}", "--workers", str(workers))
            for workers in (1, 2, 8)]
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
    rc, stdout, stderr, _ = runs[0]
    # The corpus exercises what ordering could break: stdout lines, pair
    # warnings, construction warnings, and (past stage 1) a failed issue.
    assert [line.split(":")[0] for line in stdout.splitlines()] == [
        f"SCHED-{j}" for j in range(ISSUES) if command == "extract" or j != 6]
    if command != "extract":
        assert rc == 1
        assert "failed on SCHED-6: " in stderr
        assert "unparsable response 'hard to say'" in stderr
    if command == "mine":
        assert "crosses roles" in stderr


def test_output_is_each_issue_alone_in_corpus_order(corpus):
    """Stdout and stderr of a run are those of its issues mined one by one."""
    tmp_path, config = corpus
    rc, stdout, stderr, files = run_command("mine", config, tmp_path / "out-all", "--workers", "2")
    alone = []
    for j in range(ISSUES):
        single = tmp_path / f"corpus-{j}"
        single.mkdir()
        (single / f"SCHED-{j}.json").write_text(json.dumps(sched_issue(j)), encoding="utf-8")
        alone.append(run_command("mine", config, tmp_path / f"out-{j}", "--corpus", str(single)))
    assert rc == 1
    assert stdout == "".join(run[1] for run in alone)
    assert stderr == "".join(run[2] for run in alone)
    assert files == {name: data for run in alone for name, data in run[3].items()}


@pytest.mark.parametrize("workers", [1, 3])
def test_calls_in_flight_never_exceed_workers(corpus, monkeypatch, workers):
    tmp_path, config = corpus
    built = recorded(monkeypatch, lambda inner: Recording(inner, delay=0.002))
    rc, _, _, _ = run_command("mine", config, tmp_path / "out", "--workers", str(workers))
    assert rc == 1  # SCHED-6
    [backend] = built
    assert len(backend.calls) > 50
    assert 1 <= backend.peak <= workers


def _copy_issue(tmp_path, source: int, target: int) -> None:
    """Make corpus issue ``target`` a copy of generated issue ``source``."""
    text = json.dumps(sched_issue(source)).replace(f"q{source}z", f"q{target}z")
    (tmp_path / "corpus" / f"SCHED-{target}.json").write_text(
        text.replace(f"SCHED-{source}", f"SCHED-{target}"), encoding="utf-8")


def _served_with_the_older_issue_held_back(corpus, monkeypatch, command, *flags):
    """The issue of each call that ``command`` makes at one worker, in the
    order served, when issue 0 (made a copy of issue 7: 15 sentences; issue 1
    has 2) queues its probes only after both of issue 1's, while issue 1's
    first probe holds the one slot until issue 0 has queued all 15."""
    tmp_path, config = corpus
    submitted = {0: 0, 1: 0}
    changed = threading.Condition()
    submit = CallPool.submit

    def ordered_submit(self, fn, *args):
        rank = ISSUE_RANK.get()
        with changed:
            if rank == 0:  # issue 0 queues only after both of issue 1's probes
                assert changed.wait_for(lambda: submitted[1] >= 2, timeout=30)
            future = submit(self, fn, *args)
            submitted[rank] = submitted.get(rank, 0) + 1
            changed.notify_all()
        return future

    class Gated(Recording):
        def before(self, prompt):
            if not self.calls:  # issue 1's first probe holds the one slot
                with changed:
                    assert changed.wait_for(lambda: submitted[0] >= 15, timeout=30)

    monkeypatch.setattr(CallPool, "submit", ordered_submit)
    built = recorded(monkeypatch, Gated)
    cli.main([command, "-c", str(config), "--out", str(tmp_path / "out"), "--workers", "1",
              *flags])
    return [_issue_of(prompt) for _, prompt in built[0].calls]


def test_older_issue_is_served_first(corpus, monkeypatch):
    """Issue 0's probes, queued after issue 1's, are served before them."""
    _copy_issue(corpus[0], 7, 0)
    served = _served_with_the_older_issue_held_back(corpus, monkeypatch, "mine")
    assert served[:17] == [1] + [0] * 15 + [1]
    assert sorted(set(served)) == list(range(ISSUES))


def test_train_serves_the_older_annotated_issue_first(corpus, monkeypatch):
    """``train`` runs its annotated issues through the same driver: issue
    0's probes, queued after issue 1's, are served before them."""
    tmp_path, config = corpus
    _copy_issue(tmp_path, 7, 0)
    gold = write_gold(tmp_path / "corpus", ("SCHED-0", "SCHED-1", "SCHED-4", "SCHED-7"))
    head = tmp_path / "head.json"
    served = _served_with_the_older_issue_held_back(
        corpus, monkeypatch, "train", "--annotations", str(gold), "--head", str(head))
    assert served[:17] == [1] + [0] * 15 + [1]
    assert sorted(set(served)) == [0, 1, 4, 7]
    assert head.exists()


def _train(config, tmp_path, *flags: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``train``, with its output directory
    set to one that it must not make."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(["train", "-c", str(config), "--out", str(tmp_path / "out"), *flags])
    assert not (tmp_path / "out").exists()
    return rc, stdout.getvalue(), stderr.getvalue()


def test_a_failed_cloze_probe_stops_train(corpus):
    """A reply that fails its check on one annotated issue stops ``train``
    with an error: no head, and no pool or driver thread left."""
    tmp_path, config = corpus
    script = json.loads(json.dumps(SCRIPT))
    script["mask_probs"]["rules"].insert(0, {"contains": "Plan q3z", "probs": None})
    (tmp_path / "failing.json").write_text(json.dumps(script), encoding="utf-8")
    gold = write_gold(tmp_path / "corpus", [f"SCHED-{j}" for j in range(ISSUES)])
    head = tmp_path / "head.json"
    threads = set(threading.enumerate())
    rc, stdout, stderr = _train(config, tmp_path, "--script", str(tmp_path / "failing.json"),
                                "--annotations", str(gold), "--head", str(head),
                                "--workers", "2")
    assert (rc, stdout) == (1, "")
    assert stderr == "error: mask-probs response: field 'probs' must be list\n"
    assert not head.exists()
    assert set(threading.enumerate()) <= threads


@pytest.mark.parametrize("unset,message", [
    ("annotations_path", "annotations_path is required for this command"),
    ("head_path", "head_path is required to train in prompt_head mode"),
    ("backend", "backend is required in prompt_head mode: one of ('remote', 'scripted')"),
])
def test_train_config_errors_come_before_any_request(corpus, monkeypatch, unset, message):
    tmp_path, config = corpus
    values = json.loads(config.read_text(encoding="utf-8"))
    values["annotations_path"] = str(write_gold(tmp_path / "corpus", ["SCHED-1"]))
    values["head_path"] = str(tmp_path / "head.json")
    del values[unset]
    config.write_text(json.dumps(values), encoding="utf-8")
    submitted = []
    monkeypatch.setattr(CallPool, "submit", lambda self, *call: submitted.append(call))
    assert _train(config, tmp_path) == (2, "", f"config error: {message}\n")
    assert not submitted
    assert not (tmp_path / "head.json").exists()


def test_log_records_wait_for_their_issue(corpus, monkeypatch):
    """Issue 1 finishes, warnings and all, while issue 0 still waits on a
    probe; issue 0's warnings still come out first."""
    tmp_path, config = corpus
    _copy_issue(tmp_path, 7, 0)
    _copy_issue(tmp_path, 5, 1)
    out = tmp_path / "out"

    class Gated(Recording):
        def before(self, prompt):
            if "Sentence 1: Plan q0z-0 " in prompt and "Sentence 2: Reason q0z-1 " in prompt:
                for _ in range(3000):
                    if (out / "SCHED-1.rationales.md").exists():
                        return
                    time.sleep(0.01)
                raise AssertionError("issue 1 did not finish while issue 0 waited")

    recorded(monkeypatch, Gated)
    _, _, stderr, _ = run_command("mine", config, out, "--workers", "2")
    monkeypatch.setattr(cli, "build_backend", build_backend)
    per_issue = []
    for j in (0, 1):
        single = tmp_path / f"corpus-{j}"
        single.mkdir()
        (single / f"SCHED-{j}.json").write_bytes(
            (tmp_path / "corpus" / f"SCHED-{j}.json").read_bytes())
        per_issue.append(run_command("mine", config, tmp_path / f"out-{j}",
                                     "--corpus", str(single))[2])
    assert "unparsable" in per_issue[0] and "crosses roles" in per_issue[1]
    assert "unparsable" not in per_issue[1]
    assert stderr.startswith(per_issue[0] + per_issue[1])


def test_pool_serves_lower_rank_first():
    gate = threading.Event()
    served: list[str] = []

    def call(name: str) -> str:
        if name == "gate":
            assert gate.wait(timeout=30)
        served.append(name)
        return name

    def submit_as(rank: int, names: list[str]) -> list:
        def submit_all():
            ISSUE_RANK.set(rank)
            return [pool.submit(call, name) for name in names]
        return copy_context().run(submit_all)

    with contextlib.closing(CallPool(1)) as pool:
        held = pool.submit(call, "gate")
        later = submit_as(2, ["c1", "c2"])
        older = submit_as(1, ["b1", "b2"])
        gate.set()
        assert [f.result(timeout=30) for f in [held, *older, *later]] == [
            "gate", "b1", "b2", "c1", "c2"]
    assert served == ["gate", "b1", "b2", "c1", "c2"]


def test_a_failed_step_leaves_its_driver_thread_at_the_default_rank(monkeypatch):
    """Each step runs with its issue's corpus position as its rank, also
    after a step that raised; once a step is done, failed or not, the rank
    on its driver thread is the default."""
    after: list[int] = []

    class Watched(ThreadPoolExecutor):
        def submit(self, fn, /, *args):
            def watched():
                try:
                    return fn(*args)
                finally:
                    after.append(ISSUE_RANK.get())
            return super().submit(watched)

    def step(issue: str) -> int:
        if issue == "boom":
            raise TransportError("connection reset")
        return ISSUE_RANK.get()

    monkeypatch.setattr(miner, "ThreadPoolExecutor", Watched)
    done = list(in_issue_order(["a", "boom", "b", "boom", "c"], step))
    assert [issue for issue, _ in done] == ["a", "boom", "b", "boom", "c"]
    assert [job.result() for issue, job in done if issue != "boom"] == [0, 2, 4]
    assert all(isinstance(job.exception(), TransportError)
               for issue, job in done if issue == "boom")
    assert after == [0] * 5


def test_an_unset_workers_sizes_the_pool_by_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert usable_cpus() == 1
    assert CallPool().size == 1
    assert CallPool(3).size == 3
    monkeypatch.delattr(os, "sched_getaffinity")  # a platform without affinity
    assert CallPool().size == 64


def test_pool_call_all_raises_the_first_failure_in_request_order():
    def call(n: int) -> int:
        if n in (2, 4):
            raise TransportError(f"call {n}")
        return n

    with contextlib.closing(CallPool(2)) as pool:
        with pytest.raises(TransportError, match="call 2"):
            pool.call_all([(call, n) for n in range(6)])
        assert pool.call_all([(call, n) for n in (0, 1, 3)]) == [0, 1, 3]


class _Counted:
    """A call that counts how often it ran for each argument."""

    def __init__(self):
        self.lock = threading.Lock()
        self.runs: Counter = Counter()

    def __call__(self, name: str) -> str:
        with self.lock:
            self.runs[name] += 1
        return name.upper()


def test_pool_sends_each_distinct_request_once():
    call = _Counted()
    with contextlib.closing(CallPool(2)) as pool:
        assert pool.call_all([(call, "a"), (call, "b"), (call, "a"), (call, "a")]) == [
            "A", "B", "A", "A"]
        assert call.runs == {"a": 1, "b": 1}
        assert pool.call_all([(call, "b"), (call, "c"), (call, "c")]) == ["B", "C", "C"]
        assert call.runs == {"a": 1, "b": 1, "c": 1}
    # Closing the pool forgets what it was told.
    assert not pool._replies


def test_a_closed_pool_has_no_live_thread_and_runs_no_call():
    """Three calls meet at a barrier, so each runs on its own pool thread;
    after ``close`` none of those threads is alive, and the pool refuses a
    call instead of running it."""
    meet = threading.Barrier(3, timeout=30)
    threads = set()

    def call(name: str) -> str:
        threads.add(threading.current_thread())
        meet.wait()
        return name

    pool = CallPool(3)
    assert pool.call_all([(call, name) for name in "abc"]) == ["a", "b", "c"]
    pool.close()
    assert len(threads) == 3
    assert not any(thread.is_alive() for thread in threads)
    counted = _Counted()
    with pytest.raises(RuntimeError):
        pool.call_all([(counted, "d")])
    with pytest.raises(RuntimeError):
        pool.submit(counted, "e")
    assert not counted.runs


def test_pool_answers_from_memory_without_a_slot():
    gate = threading.Event()
    call = _Counted()

    def held() -> str:
        assert gate.wait(timeout=30)
        return "held"

    with contextlib.closing(CallPool(1)) as pool, ThreadPoolExecutor(max_workers=1) as other:
        assert pool.call_all([(call, "a")]) == ["A"]
        blocked = pool.submit(held)  # takes the one slot
        try:
            again = other.submit(pool.call_all, [(call, "a"), (call, "a")])
            assert again.result(timeout=30) == ["A", "A"]
            assert not blocked.done()
        finally:
            gate.set()
        assert blocked.result(timeout=30) == "held"
    assert call.runs == {"a": 1}


def test_pool_never_remembers_a_failure():
    failures = {"x": 1}
    calls = []

    def flaky(name: str) -> str:
        calls.append(name)
        if failures.get(name):
            failures[name] -= 1
            raise TransportError(f"{name} reset")
        return name

    with contextlib.closing(CallPool(2)) as pool:
        with pytest.raises(TransportError, match="x reset"):
            pool.call_all([(flaky, "x"), (flaky, "x")])
        assert pool.call_all([(flaky, "x")]) == ["x"]
        assert pool.call_all([(flaky, "x")]) == ["x"]
    assert calls == ["x", "x"]


def test_pool_does_not_join_a_call_of_another_batch_in_flight():
    """A batch that asks for what another batch's call is still fetching
    makes its own call, so its wait does not hang on the other batch."""
    started, release = threading.Event(), threading.Event()
    runs = []

    def call(name: str) -> str:
        runs.append(name)
        if len(runs) == 1:
            started.set()
            assert release.wait(timeout=30)
        return name

    with contextlib.closing(CallPool(2)) as pool, ThreadPoolExecutor(max_workers=1) as other:
        first = other.submit(pool.call_all, [(call, "a")])
        assert started.wait(timeout=30)
        assert pool.call_all([(call, "a")]) == ["a"]
        release.set()
        assert first.result(timeout=30) == ["a"]
    assert runs == ["a", "a"]


def test_pool_memory_keeps_the_last_replies_up_to_its_cap():
    call = _Counted()
    names = [f"k{n}" for n in range(REPLY_MEMORY + 1)]
    with contextlib.closing(CallPool(1)) as pool:
        pool.call_all([(call, name) for name in names])
        assert len(pool._replies) == REPLY_MEMORY
        # k0 was evicted; the rest are answered from memory, oldest first,
        # which leaves k1 the least recently used.
        pool.call_all([(call, name) for name in names[1:]])
        assert sum(call.runs.values()) == len(names)
        pool.call_all([(call, "k0")])
        assert call.runs["k0"] == 2
        pool.call_all([(call, "k1")])
        assert call.runs["k1"] == 2
        assert len(pool._replies) == REPLY_MEMORY


def test_pool_memory_stays_whole_under_contention():
    """Four callers share a pool of eight threads over more keys than the
    memory holds, with a short switch interval: every reply is right and the
    memory keeps to its cap."""
    keys = [f"k{n}" for n in range(REPLY_MEMORY + 500)]

    def ask(seed: int) -> None:
        rng = random.Random(seed)
        for _ in range(20):
            batch = rng.sample(keys, 100)
            assert pool.call_all([(str.upper, key) for key in batch]) == [
                key.upper() for key in batch]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with contextlib.closing(CallPool(8)) as pool, ThreadPoolExecutor(max_workers=4) as callers:
            for job in [callers.submit(ask, seed) for seed in range(4)]:
                job.result(timeout=60)
            assert len(list(pool._replies)) == len(pool._replies) <= REPLY_MEMORY
    finally:
        sys.setswitchinterval(interval)


def test_the_whole_request_is_the_key():
    """The same prompt with other candidates, or another ``max_tokens``, is
    another call."""
    backend = Recording(ScriptedBackend(SCRIPT))
    prompt = "Plan q1z-0 keeps the parser simple. is [MASK] related to the issue"
    with contextlib.closing(CallPool(2)) as pool:
        pool.call_all([(backend.mask_probs, prompt, POLARITY_WORDS),
                       (backend.mask_probs, prompt, POLARITY_WORDS),
                       (backend.generate, prompt, 8),
                       (backend.generate, prompt, 8)])
        assert len(backend.calls) == 2
        pool.call_all([(backend.mask_probs, prompt, POLARITY_WORDS[:-1] + ("else",)),
                       (backend.generate, prompt, 9)])
        assert len(backend.calls) == 4


def test_transport_error_fails_only_its_issue(corpus, monkeypatch):
    tmp_path, config = corpus

    class Failing(Recording):
        def before(self, prompt):
            if "Sentence 1: Plan q3z-0" in prompt:
                raise TransportError("POST /v1/generate failed: connection reset")

    recorded(monkeypatch, Failing)
    rc, stdout, stderr, files = run_command("mine", config, tmp_path / "out", "--workers", "2")
    assert rc == 1
    keys = [line.split(":")[0] for line in stdout.splitlines()]
    assert keys == [f"SCHED-{j}" for j in range(ISSUES) if j not in (3, 6)]
    failed = [line for line in stderr.splitlines() if line.startswith("failed on")]
    assert failed == [
        "failed on SCHED-3: POST /v1/generate failed: connection reset",
        "failed on SCHED-6: generate response: field 'text' must be str",
    ]
    # SCHED-3's line comes before SCHED-5's construction warning
    lines = stderr.splitlines()
    first_warning = next(i for i, line in enumerate(lines) if "crosses roles" in line)
    assert lines.index(failed[0]) < first_warning < lines.index(failed[1])
    assert "SCHED-4.rationales.json" in files
    assert "SCHED-3.rationales.json" not in files


def test_remote_connection_pool_keeps_a_connection_per_worker():
    """Two rounds of 12 calls open at once: the second round reuses the
    first round's 12 connections and opens none."""
    with run_stub(keep_alive=True) as server:
        server.gate = threading.Barrier(12, timeout=30)
        cfg = load_config(overrides={"backend": "remote", "backend_url": server.url,
                                     "workers": 12})
        backend = build_backend(cfg)
        with ThreadPoolExecutor(max_workers=12) as pool:
            for _ in range(2):
                texts = list(pool.map(lambda n: backend.generate(f"prompt {n}"), range(12)))
                assert len(texts) == 12
        assert len(server.requests) == 24
        assert server.connections == 12
        backend.close()


@pytest.mark.parametrize("workers", [1, 3])
def test_classify_pairs_without_a_pool_keeps_to_workers(workers):
    """Given no pool, ``classify_pairs`` still has at most ``workers`` calls
    in flight."""
    issue = clean_issue(parse_issue(sched_issue(7)))  # 7 design sentences: 21 pairs
    design = [s for s in enumerate_sentences(issue) if " q7z-" in s.text]
    backend = Recording(ScriptedBackend(SCRIPT), delay=0.01)
    miner.classify_pairs(design, backend, workers=workers)
    assert len(backend.calls) >= 21
    assert backend.peak == workers


@pytest.mark.parametrize("command", ["extract", "pair", "mine"])
def test_a_command_sends_each_distinct_request_once(sharing, monkeypatch, command):
    tmp_path, config = sharing
    built = recorded(monkeypatch)
    runs = [run_command(command, config, tmp_path / f"out-{workers}", "--workers", str(workers))
            for workers in (1, 2, 4)]
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
    assert runs[0][0] == 0
    alone: list[list] = []
    for key in SHARING:
        write_sharing(tmp_path / key, [key])
        run_command(command, config, tmp_path / f"out-{key}", "--corpus", str(tmp_path / key))
        alone.append(built[-1].calls)
    # Each run sent what the issues mined one by one send, and nothing twice.
    for backend in built:
        assert len(backend.calls) == len(set(backend.calls))
    for backend in built[:3]:
        assert set(backend.calls) == set().union(*alone)
    assert len(built[0].calls) < sum(map(len, alone))


@pytest.mark.parametrize("corpus_name,annotated", [
    ("corpus", ("SCHED-1", "SCHED-3", "SCHED-6", "SCHED-7")),
    ("sharing", tuple(SHARING)),
])
def test_train_sends_the_cloze_probes_of_extract_once(request, monkeypatch, corpus_name,
                                                      annotated):
    """At any ``workers``, ``train`` sends the cloze probes that ``extract``
    sends for the annotated issues, each distinct one once."""
    tmp_path, config = request.getfixturevalue(corpus_name)
    gold = write_gold(tmp_path / "corpus", annotated)
    built = recorded(monkeypatch)
    for workers in (1, 2, 4):
        assert _train(config, tmp_path, "--annotations", str(gold), "--workers", str(workers),
                      "--head", str(tmp_path / "head.json"))[0] == 0
    only = tmp_path / "annotated"
    only.mkdir()
    for key in annotated:
        (only / f"{key}.json").write_bytes((tmp_path / "corpus" / f"{key}.json").read_bytes())
    assert run_command("extract", config, tmp_path / "extracted", "--corpus", str(only))[0] == 0
    extracted = built[-1].calls
    assert {kind for kind, _ in extracted} == {"mask_probs"}
    for backend in built[:-1]:
        assert sorted(backend.calls) == sorted(set(extracted))
        assert len(backend.calls) == len(set(backend.calls))


def test_mine_sends_no_request_of_the_stages_before_it_again(sharing, monkeypatch, xattrs):
    """``mine`` after ``extract`` takes its scores from the design files and
    sends no cloze probe; after ``extract`` and ``pair`` it sends no request
    at all."""
    tmp_path, config = sharing
    backend = Recording(ScriptedBackend(SCRIPT))
    monkeypatch.setattr(cli, "build_backend", lambda cfg: backend)
    assert run_command("extract", config, tmp_path / "out")[0] == 0
    extracted = list(backend.calls)
    assert run_command("mine", config, tmp_path / "out")[0] == 0
    mined = backend.calls[len(extracted):]
    assert {kind for kind, _ in extracted} == {"mask_probs"}
    assert mined and {kind for kind, _ in mined} == {"generate"}
    for command in ("extract", "pair"):
        assert run_command(command, config, tmp_path / "both")[0] == 0
    sent = len(backend.calls)
    assert run_command("mine", config, tmp_path / "both")[0] == 0
    assert len(backend.calls) == sent


def test_a_failed_shared_request_fails_only_the_issue_that_sent_it(sharing, monkeypatch):
    """The first call for a cloze probe of SHARE-0 and SHARE-2 fails.  That
    failure is not remembered: the other issue sends the probe again and
    writes what it writes without the failure."""
    tmp_path, config = sharing
    _, _, _, clean = run_command("mine", config, tmp_path / "clean")

    class FailsFirst(Recording):
        failed = False

        def before(self, prompt):
            if prompt.startswith(REASON) and "[MASK]" in prompt:
                with self.lock:
                    first, self.failed = not self.failed, True
                if first:
                    raise TransportError("POST /v1/mask-probs failed: connection reset")

    built = recorded(monkeypatch, FailsFirst)
    rc, _, stderr, files = run_command("mine", config, tmp_path / "out", "--workers", "2")
    assert rc == 1
    failed = [line.split(":")[0].removeprefix("failed on ")
              for line in stderr.splitlines() if line.startswith("failed on")]
    assert len(failed) == 1 and failed[0] in ("SHARE-0", "SHARE-2")
    survivors = {name: data for name, data in clean.items() if not name.startswith(failed[0])}
    assert files == survivors
    # The failed call raised before ``calls`` kept it; the call made again
    # is kept.
    assert sum(prompt.startswith(REASON) and "[MASK]" in prompt
               for _, prompt in built[0].calls) == 1
