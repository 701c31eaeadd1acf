"""Scheduling of backend calls across a run: one call pool, oldest issue
first, one issue of look-ahead, output in corpus order."""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context

import pytest

from rationale_miner import cli
from rationale_miner.backends.protocol import Backend
from rationale_miner.backends.scripted import ScriptedBackend
from rationale_miner.config import build_backend, build_pair_classifier, load_config
from rationale_miner.corpus import clean_issue, enumerate_sentences, parse_issue
from rationale_miner.errors import TransportError
from rationale_miner.features import POLARITY_WORDS
from rationale_miner.miner import ISSUE_RANK, REPLY_MEMORY, CallPool

from recording import Recording
from stub_server import run_stub

ISSUES = 9
# Design tags per issue; every issue also has noise sentences.
_TAGS = ("Plan", "Reason", "Plan", "Bridge", "Plan", "Murky", "Reason", "Plan")
_NOISE = ("The nightly build ran on {n} executors.", "Attached the log of run {n}.")
_DESIGN = "{tag} q{j}z-{n} keeps the parser simple."
_DESIGN_P0 = [0.9] + [0.0] * 13
_NOISE_P0 = [0.1] + [0.0] * 13

# The golden head calls a sentence design when its first polarity slot is
# 0.9 and not when it is 0.1.  Pair answers depend on the tags alone: a
# "Murky" second sentence is unparsable (a warning), a "Bridge" is an
# argument complementary to an earlier plan (a construction warning), and a
# "Doomed" sentence has a rule without an answer (the issue fails).
SCRIPT = {
    "mask_probs": {
        "rules": [{"contains": tag + " q", "probs": _DESIGN_P0}
                  for tag in ("Plan", "Reason", "Bridge", "Murky", "Doomed")],
        "default": {"probs": _NOISE_P0},
    },
    "generate": {
        "rules": [
            {"contains": "Doomed"},
            {"contains": "Sentence 2: Murky", "text": "hard to say"},
            {"contains": ["Sentence 1: Reason", "Sentence 2: Plan"], "text": "supporting"},
            {"contains": ["Sentence 1: Bridge", "Sentence 2: Plan"], "text": "supporting"},
            {"contains": ["Sentence 1: Plan", "Sentence 2: Bridge"], "text": "complementary"},
            {"contains": ["Sentence 1: Plan", "Sentence 2: Plan"], "text": "complementary"},
            {"contains": ["Sentence 1: Reason", "Sentence 2: Reason"],
             "text": "complementary"},
        ],
        "default": {"text": "unrelated"},
    },
}


def _issue(j: int) -> dict:
    """Issue ``j``: j % 8 design sentences among noise, in three comments;
    issue 6 also holds a sentence that fails its pair probes."""
    design = [_DESIGN.format(tag=tag, j=j, n=n) for n, tag in enumerate(_TAGS[: j % 8])]
    if j == 6:
        design.insert(1, _DESIGN.format(tag="Doomed", j=j, n=9))
    texts = []
    for n, sentence in enumerate(design):
        texts.extend([sentence, _NOISE[n % 2].format(n=j + n + 2)])
    texts = texts or [_NOISE[0].format(n=j + 2)]
    thirds = [texts[i::3] for i in range(3)]
    return {
        "key": f"SCHED-{j}",
        "summary": f"Pick a parser design for q{j}z",
        "reporter": "alice",
        "description": " ".join(thirds[0]) or "No description.",
        "comments": [
            {"author": author, "created": f"2020-01-0{c + 2}T10:00:00.000+0000",
             "body": " ".join(part) or "Thanks."}
            for c, (author, part) in enumerate(zip(("bob", "carol"), thirds[1:]))
        ],
    }


def _issue_of(prompt: str) -> int:
    return int(re.search(r"q(\d+)z", prompt).group(1))


@pytest.fixture
def corpus(tmp_path, fixtures_dir):
    """A config over ``ISSUES`` generated issues and the script above."""
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for j in range(ISSUES):
        (corpus_dir / f"SCHED-{j}.json").write_text(json.dumps(_issue(j)), encoding="utf-8")
    script = tmp_path / "script.json"
    script.write_text(json.dumps(SCRIPT), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "corpus_dir": str(corpus_dir), "mode": "prompt_head", "backend": "scripted",
        "script_path": str(script), "head_path": str(fixtures_dir / "golden-head.json"),
    }), encoding="utf-8")
    return tmp_path, config


def _run(command: str, config, out, *flags: str) -> tuple[int, str, str, dict]:
    """Exit code, stdout, stderr and output files (name -> bytes) of a command."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main([command, "-c", str(config), "--out", str(out), *flags])
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    # Output paths name the output directory; compare them without it.
    return rc, stdout.getvalue().replace(str(out), "<out>"), stderr.getvalue(), files


@pytest.mark.parametrize("command", ["mine", "extract", "pair"])
def test_output_is_independent_of_workers(corpus, command):
    tmp_path, config = corpus
    runs = [_run(command, config, tmp_path / f"out-{workers}", "--workers", str(workers))
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
    rc, stdout, stderr, files = _run("mine", config, tmp_path / "out-all", "--workers", "2")
    alone = []
    for j in range(ISSUES):
        single = tmp_path / f"corpus-{j}"
        single.mkdir()
        (single / f"SCHED-{j}.json").write_text(json.dumps(_issue(j)), encoding="utf-8")
        alone.append(_run("mine", config, tmp_path / f"out-{j}", "--corpus", str(single)))
    assert rc == 1
    assert stdout == "".join(run[1] for run in alone)
    assert stderr == "".join(run[2] for run in alone)
    assert files == {name: data for run in alone for name, data in run[3].items()}


class _Instrumented(Backend):
    """Wraps a backend; counts calls in flight and keeps each call's prompt."""

    def __init__(self, inner: Backend, delay: float = 0.0):
        self.inner = inner
        self.delay = delay
        self.lock = threading.Lock()
        self.in_flight = 0
        self.peak = 0
        self.prompts: list[str] = []

    def before(self, prompt: str) -> None:
        """Runs on the pool thread before each call."""

    def _call(self, func, prompt, *args):
        self.before(prompt)
        with self.lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            self.prompts.append(prompt)
        try:
            time.sleep(self.delay)
            return func(prompt, *args)
        finally:
            with self.lock:
                self.in_flight -= 1

    def mask_probs(self, prompt, candidates):
        return self._call(self.inner.mask_probs, prompt, candidates)

    def generate(self, prompt, max_tokens=8):
        return self._call(self.inner.generate, prompt, max_tokens)


def _use_backend(monkeypatch, backend: _Instrumented) -> None:
    monkeypatch.setattr(cli, "build_backend", lambda cfg: backend)


@pytest.mark.parametrize("workers", [1, 3])
def test_calls_in_flight_never_exceed_workers(corpus, monkeypatch, workers):
    tmp_path, config = corpus
    backend = _Instrumented(ScriptedBackend(SCRIPT), delay=0.002)
    _use_backend(monkeypatch, backend)
    rc, _, _, _ = _run("mine", config, tmp_path / "out", "--workers", str(workers))
    assert rc == 1  # SCHED-6
    assert len(backend.prompts) > 50
    assert 1 <= backend.peak <= workers


def _copy_issue(tmp_path, source: int, target: int) -> None:
    """Make corpus issue ``target`` a copy of generated issue ``source``."""
    text = json.dumps(_issue(source)).replace(f"q{source}z", f"q{target}z")
    (tmp_path / "corpus" / f"SCHED-{target}.json").write_text(
        text.replace(f"SCHED-{source}", f"SCHED-{target}"), encoding="utf-8")


def test_older_issue_is_served_first(corpus, monkeypatch):
    """Issue 0's probes, queued after issue 1's, are served before them."""
    tmp_path, config = corpus
    _copy_issue(tmp_path, 7, 0)  # 15 sentences; issue 1 has 2
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

    class Gated(_Instrumented):
        def before(self, prompt):
            if not self.prompts:  # issue 1's first probe holds the one slot
                with changed:
                    assert changed.wait_for(lambda: submitted[0] >= 15, timeout=30)

    monkeypatch.setattr(CallPool, "submit", ordered_submit)
    backend = Gated(ScriptedBackend(SCRIPT))
    _use_backend(monkeypatch, backend)
    _run("mine", config, tmp_path / "out", "--workers", "1")
    served = [_issue_of(prompt) for prompt in backend.prompts]
    assert served[:17] == [1] + [0] * 15 + [1]
    assert sorted(set(served)) == list(range(ISSUES))


def test_log_records_wait_for_their_issue(corpus, monkeypatch):
    """Issue 1 finishes, warnings and all, while issue 0 still waits on a
    probe; issue 0's warnings still come out first."""
    tmp_path, config = corpus
    _copy_issue(tmp_path, 7, 0)
    _copy_issue(tmp_path, 5, 1)
    out = tmp_path / "out"

    class Gated(_Instrumented):
        def before(self, prompt):
            if "Sentence 1: Plan q0z-0 " in prompt and "Sentence 2: Reason q0z-1 " in prompt:
                for _ in range(3000):
                    if (out / "SCHED-1.rationales.md").exists():
                        return
                    time.sleep(0.01)
                raise AssertionError("issue 1 did not finish while issue 0 waited")

    _use_backend(monkeypatch, Gated(ScriptedBackend(SCRIPT)))
    _, _, stderr, _ = _run("mine", config, out, "--workers", "2")
    monkeypatch.setattr(cli, "build_backend", build_backend)
    per_issue = []
    for j in (0, 1):
        single = tmp_path / f"corpus-{j}"
        single.mkdir()
        (single / f"SCHED-{j}.json").write_bytes(
            (tmp_path / "corpus" / f"SCHED-{j}.json").read_bytes())
        per_issue.append(_run("mine", config, tmp_path / f"out-{j}", "--corpus", str(single))[2])
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

    with CallPool(1) as pool:
        held = pool.submit(call, "gate")
        later = submit_as(2, ["c1", "c2"])
        older = submit_as(1, ["b1", "b2"])
        gate.set()
        assert [f.result(timeout=30) for f in [held, *older, *later]] == [
            "gate", "b1", "b2", "c1", "c2"]
    assert served == ["gate", "b1", "b2", "c1", "c2"]


def test_pool_call_all_raises_the_first_failure_in_request_order():
    def call(n: int) -> int:
        if n in (2, 4):
            raise TransportError(f"call {n}")
        return n

    with CallPool(2) as pool:
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
    with CallPool(2) as pool:
        assert pool.call_all([(call, "a"), (call, "b"), (call, "a"), (call, "a")]) == [
            "A", "B", "A", "A"]
        assert call.runs == {"a": 1, "b": 1}
        assert pool.call_all([(call, "b"), (call, "c"), (call, "c")]) == ["B", "C", "C"]
        assert call.runs == {"a": 1, "b": 1, "c": 1}
    # Closing the pool forgets what it was told.
    assert pool.call_all([(call, "a")]) == ["A"]
    assert call.runs["a"] == 2
    pool.close()


def test_pool_answers_from_memory_without_a_slot():
    gate = threading.Event()
    call = _Counted()

    def held() -> str:
        assert gate.wait(timeout=30)
        return "held"

    with CallPool(1) as pool, ThreadPoolExecutor(max_workers=1) as other:
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

    with CallPool(2) as pool:
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

    with CallPool(2) as pool, ThreadPoolExecutor(max_workers=1) as other:
        first = other.submit(pool.call_all, [(call, "a")])
        assert started.wait(timeout=30)
        assert pool.call_all([(call, "a")]) == ["a"]
        release.set()
        assert first.result(timeout=30) == ["a"]
    assert runs == ["a", "a"]


def test_pool_memory_keeps_the_last_replies_up_to_its_cap():
    call = _Counted()
    names = [f"k{n}" for n in range(REPLY_MEMORY + 1)]
    with CallPool(1) as pool:
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
        with CallPool(8) as pool, ThreadPoolExecutor(max_workers=4) as callers:
            for job in [callers.submit(ask, seed) for seed in range(4)]:
                job.result(timeout=60)
            assert len(list(pool._replies)) == len(pool._replies) <= REPLY_MEMORY
    finally:
        sys.setswitchinterval(interval)


def test_the_whole_request_is_the_key():
    """The same prompt with other candidates, or another ``max_tokens``, is
    another call."""
    backend = _Instrumented(ScriptedBackend(SCRIPT))
    prompt = "Plan q1z-0 keeps the parser simple. is [MASK] related to the issue"
    with CallPool(2) as pool:
        pool.call_all([(backend.mask_probs, prompt, POLARITY_WORDS),
                       (backend.mask_probs, prompt, POLARITY_WORDS),
                       (backend.generate, prompt, 8),
                       (backend.generate, prompt, 8)])
        assert len(backend.prompts) == 2
        pool.call_all([(backend.mask_probs, prompt, POLARITY_WORDS[:-1] + ("else",)),
                       (backend.generate, prompt, 9)])
        assert len(backend.prompts) == 4


def test_transport_error_fails_only_its_issue(corpus, monkeypatch):
    tmp_path, config = corpus

    class Failing(_Instrumented):
        def before(self, prompt):
            if "Sentence 1: Plan q3z-0" in prompt:
                raise TransportError("POST /v1/generate failed: connection reset")

    backend = Failing(ScriptedBackend(SCRIPT))
    _use_backend(monkeypatch, backend)
    rc, stdout, stderr, files = _run("mine", config, tmp_path / "out", "--workers", "2")
    assert rc == 1
    keys = [line.split(":")[0] for line in stdout.splitlines()]
    assert keys == [f"SCHED-{j}" for j in range(ISSUES) if j not in (3, 6)]
    failed = [line for line in stderr.splitlines() if line.startswith("failed on")]
    assert failed == [
        "failed on SCHED-3: POST /v1/generate failed: connection reset",
        "failed on SCHED-6: script rule lacks 'text': {'contains': 'Doomed'}",
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
def test_pair_classifier_without_a_pool_keeps_to_workers(workers):
    """Built with no pool, the pair classifier still has at most ``workers``
    calls in flight."""
    issue = clean_issue(parse_issue(_issue(7)))  # 7 design sentences: 21 pairs
    design = [s for s in enumerate_sentences(issue) if " q7z-" in s.text]
    backend = _Instrumented(ScriptedBackend(SCRIPT), delay=0.01)
    cfg = load_config(overrides={"backend": "scripted", "script_path": "script.json",
                                 "workers": workers})
    build_pair_classifier(cfg, backend).relations(design)
    assert len(backend.prompts) >= 21
    assert backend.peak == workers


# A corpus with repeated requests.  SHARE-0 holds _PLAN twice, and SHARE-2
# shares its summary and its description (_PLAN, then _REASON) with SHARE-0,
# so their cloze probes and the pair probe of that description are equal.
# SHARE-1 sits between them, so SHARE-2 starts only once SHARE-0 is done.
_SHARED_SUMMARY = "Pick a parser design for q0z"
_PLAN = "Plan q0z-0 keeps the parser simple."
_REASON = "Reason q0z-1 keeps the parser simple."
SHARING = {
    "SHARE-0": (_SHARED_SUMMARY, f"{_PLAN} {_REASON}",
                [f"{_PLAN} The nightly build ran on 3 executors.",
                 "Plan q0z-2 keeps the parser simple."]),
    "SHARE-1": ("Pick a cache design for q1z",
                "Plan q1z-0 keeps the parser simple. Attached the log of run 4.",
                ["Reason q1z-1 keeps the parser simple."]),
    "SHARE-2": (_SHARED_SUMMARY, f"{_PLAN} {_REASON}",
                ["Bridge q2z-0 keeps the parser simple."]),
}


def _write_sharing(directory, keys) -> None:
    directory.mkdir(exist_ok=True)
    for key in keys:
        summary, description, comments = SHARING[key]
        (directory / f"{key}.json").write_text(json.dumps({
            "key": key, "summary": summary, "reporter": "alice", "description": description,
            "comments": [{"author": "bob", "created": f"2020-01-0{c + 2}T10:00:00.000+0000",
                          "body": body} for c, body in enumerate(comments)],
        }), encoding="utf-8")


@pytest.fixture
def sharing(corpus):
    """The ``corpus`` config over the SHARING issues instead."""
    tmp_path, config = corpus
    for path in (tmp_path / "corpus").iterdir():
        path.unlink()
    _write_sharing(tmp_path / "corpus", SHARING)
    return tmp_path, config


def _recorded(monkeypatch) -> list[Recording]:
    """The Recording backends that runs build from now on, in build order."""
    built: list[Recording] = []

    def build(cfg):
        built.append(Recording(ScriptedBackend(SCRIPT)))
        return built[-1]

    monkeypatch.setattr(cli, "build_backend", build)
    return built


@pytest.mark.parametrize("command", ["extract", "pair", "mine"])
def test_a_command_sends_each_distinct_request_once(sharing, monkeypatch, command):
    tmp_path, config = sharing
    built = _recorded(monkeypatch)
    runs = [_run(command, config, tmp_path / f"out-{workers}", "--workers", str(workers))
            for workers in (1, 2, 4)]
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
    assert runs[0][0] == 0
    alone: list[list] = []
    for key in SHARING:
        _write_sharing(tmp_path / key, [key])
        _run(command, config, tmp_path / f"out-{key}", "--corpus", str(tmp_path / key))
        alone.append(built[-1].calls)
    # Each run sent what the issues mined one by one send, and nothing twice.
    for backend in built:
        assert len(backend.calls) == len(set(backend.calls))
    for backend in built[:3]:
        assert set(backend.calls) == set().union(*alone)
    assert len(built[0].calls) < sum(map(len, alone))


def test_each_command_in_a_process_sends_its_requests_again(sharing, monkeypatch):
    """Replies are remembered for one command: ``mine`` after ``extract``
    in the same process and on the same backend sends every cloze probe
    again."""
    tmp_path, config = sharing
    backend = Recording(ScriptedBackend(SCRIPT))
    monkeypatch.setattr(cli, "build_backend", lambda cfg: backend)
    assert _run("extract", config, tmp_path / "out")[0] == 0
    extracted = list(backend.calls)
    assert _run("mine", config, tmp_path / "out")[0] == 0
    mined = backend.calls[len(extracted):]
    assert {kind for kind, _ in extracted} == {"mask_probs"}
    assert Counter(call for call in mined if call[0] == "mask_probs") == Counter(extracted)


def test_a_failed_shared_request_fails_only_the_issue_that_sent_it(sharing, monkeypatch):
    """The first call for a cloze probe of SHARE-0 and SHARE-2 fails.  That
    failure is not remembered: the other issue sends the probe again and
    writes what it writes without the failure."""
    tmp_path, config = sharing
    _, _, _, clean = _run("mine", config, tmp_path / "clean")

    class FailsFirst(_Instrumented):
        failed = False

        def before(self, prompt):
            if prompt.startswith(_REASON) and "[MASK]" in prompt:
                with self.lock:
                    first, self.failed = not self.failed, True
                if first:
                    raise TransportError("POST /v1/mask-probs failed: connection reset")

    backend = FailsFirst(ScriptedBackend(SCRIPT))
    _use_backend(monkeypatch, backend)
    rc, _, stderr, files = _run("mine", config, tmp_path / "out", "--workers", "2")
    assert rc == 1
    failed = [line.split(":")[0].removeprefix("failed on ")
              for line in stderr.splitlines() if line.startswith("failed on")]
    assert len(failed) == 1 and failed[0] in ("SHARE-0", "SHARE-2")
    survivors = {name: data for name, data in clean.items() if not name.startswith(failed[0])}
    assert files == survivors
    # The failed call raised before ``prompts`` kept it; the call made again
    # is kept.
    assert sum(prompt.startswith(_REASON) and "[MASK]" in prompt
               for prompt in backend.prompts) == 1
