"""Run configuration: JSON file merged with command-line overrides.

The only environment variables read anywhere are the remote backend's: the
auth-token override and the standard proxy settings.  Every other knob lives
in the config file or a flag.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING

from .backends.heads import feature_fingerprint, load_head
from .backends.protocol import RemoteBackend, split_base_url
from .corpus import DEFAULT_BOT_AUTHORS, DEFAULT_ENCODING, can_name_a_file
from .errors import ConfigError, shown
from .miner import CallPool, PromptHeadClassifier, PromptPairClassifier, SP_FEATURE_NAMES
from .prompts import CLOZE_MAX_SEQUENCE, PAIR_MAX_SEQUENCE

if TYPE_CHECKING:  # baseline mode alone loads the baselines, and numpy with them
    from .backends.baseline import BaselineModel, PairBaselineModel

MODES = ("prompt_head", "baseline")
BACKENDS = ("remote", "scripted")

SP_FINGERPRINT = feature_fingerprint(SP_FEATURE_NAMES)

# The most ``workers``.  A pool starts ``workers`` threads on its first call,
# so an unbounded value could start thousands of threads.
MAX_WORKERS = 256

# The values that each declared field type takes (a bool is no int here);
# bot_authors is checked on its own.
_ACCEPTED = {"str": (str,), "str | None": (str, type(None)),
             "int": (int,), "int | None": (int, type(None))}

# The fields that a run stamp leaves out: no stage's result depends on them.
UNSTAMPED = ("corpus_dir", "output_dir", "auth_token", "annotations_path", "seed", "workers")


@dataclass
class RunConfig:
    corpus_dir: str = "corpus"
    output_dir: str = "out"
    mode: str = "prompt_head"
    backend: str | None = None
    backend_url: str | None = None
    auth_token: str | None = None
    script_path: str | None = None
    head_path: str | None = None
    baseline_path: str | None = None
    pair_baseline_path: str | None = None
    annotations_path: str | None = None
    lexicon_path: str | None = None
    cloze_max_sequence: int = CLOZE_MAX_SEQUENCE
    pair_max_sequence: int = PAIR_MAX_SEQUENCE
    seed: int = 0
    workers: int | None = None
    encoding: str = DEFAULT_ENCODING
    bot_authors: list[str] = field(default_factory=lambda: list(DEFAULT_BOT_AUTHORS))

    def validate(self) -> "RunConfig":
        for spec in fields(self):
            accepted = _ACCEPTED.get(spec.type)
            value = getattr(self, spec.name)
            if accepted and (not isinstance(value, accepted) or isinstance(value, bool)):
                raise ConfigError(f"{spec.name} must be {spec.type.replace('|', 'or')}, "
                                  f"got {shown(value)}")
            if (spec.name.endswith(("_dir", "_path")) and value is not None
                    and not can_name_a_file(value)):
                raise ConfigError(f"{spec.name} holds a NUL or a character the file "
                                  f"system cannot encode: {shown(value)}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {shown(self.mode)}")
        if self.backend is not None and self.backend not in BACKENDS:
            raise ConfigError(f"backend must be one of {BACKENDS}, got {shown(self.backend)}")
        if self.backend == "remote":
            if not self.backend_url:
                raise ConfigError("backend_url is required when backend is 'remote'")
            split_base_url(self.backend_url)
        if self.backend == "scripted" and not self.script_path:
            raise ConfigError("script_path is required when backend is 'scripted'")
        for key in ("cloze_max_sequence", "pair_max_sequence"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be positive")
        if self.workers is not None and self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if self.workers is not None and self.workers > MAX_WORKERS:
            raise ConfigError(f"workers must be at most {MAX_WORKERS}")
        if not isinstance(self.bot_authors, list) or not all(
                isinstance(author, str) and author for author in self.bot_authors):
            # an empty substring would match, and drop, every comment
            raise ConfigError("bot_authors must be a list of non-empty author substrings")
        try:
            "".encode(self.encoding)  # looks the codec up; refuses non-text codecs
        except (LookupError, TypeError) as exc:
            raise ConfigError(f"encoding must name a text codec, "
                              f"got {shown(self.encoding)}") from exc
        return self

    def pair_budget(self) -> int:  # kept until ROADMAP 1b: perfbench/worker.py calls it
        return self.pair_max_sequence


def load_config(path: str | Path | None = None,
                overrides: dict | None = None) -> RunConfig:
    """Build a validated RunConfig from an optional JSON file plus overrides.

    Unknown keys anywhere are configuration errors, not silent no-ops.
    """
    known = {f.name for f in fields(RunConfig)}
    values: dict = {}
    if path is not None:
        if not os.path.isfile(path):  # a name too long to exist included
            raise ConfigError(f"config file not found: {shown(str(path))}")
        try:
            loaded = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file {shown(str(path))}: "
                              f"{exc.strerror}") from exc
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        values.update(loaded)
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = value
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {shown(sorted(unknown))}")
    return RunConfig(**values).validate()


def build_backend(cfg: RunConfig):
    """The configured model backend; prompt_head mode is the only one that
    needs one."""
    if cfg.backend is None:
        raise ConfigError(f"backend is required in prompt_head mode: one of {BACKENDS}")
    if cfg.backend == "remote":
        return RemoteBackend(base_url=cfg.backend_url, auth_token=cfg.auth_token)
    from .backends.scripted import ScriptedBackend

    return ScriptedBackend.from_file(cfg.script_path)


def build_classifier(cfg: RunConfig, backend, pool: CallPool | None = None
                     ) -> PromptHeadClassifier | BaselineModel:
    """The design-sentence classifier implied by the configured mode.  In
    prompt_head mode its backend calls go through ``pool``, the run's pool,
    or a pool sized to the usable CPUs per issue when it is None."""
    if cfg.mode == "prompt_head":
        if not cfg.head_path:
            raise ConfigError("head_path is required in prompt_head mode")
        head = load_head(cfg.head_path, SP_FINGERPRINT, len(SP_FEATURE_NAMES))
        return PromptHeadClassifier(backend=backend, head=head, budget=cfg.cloze_max_sequence,
                                    pool=pool)
    if not cfg.baseline_path:
        raise ConfigError("baseline_path is required in baseline mode")
    from .backends.baseline import BaselineModel

    return BaselineModel.load(cfg.baseline_path)


def build_pair_classifier(cfg: RunConfig, backend, pool: CallPool | None = None
                          ) -> PromptPairClassifier | PairBaselineModel:
    """The pair-relation classifier implied by the configured mode.  In
    prompt_head mode its backend calls go through ``pool``, the run's pool,
    or a pool sized to the usable CPUs per call when it is None; baseline
    mode makes none."""
    if cfg.mode == "prompt_head":
        return PromptPairClassifier(backend=backend, budget=cfg.pair_budget(), pool=pool)
    if not cfg.pair_baseline_path:
        raise ConfigError("pair_baseline_path is required in baseline mode")
    from .backends.baseline import PairBaselineModel

    return PairBaselineModel.load(cfg.pair_baseline_path)
