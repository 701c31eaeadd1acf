"""Model backends: remote HTTP service, scripted test double, trained heads."""

from .protocol import (
    ENV_AUTH_TOKEN,
    Backend,
    RemoteBackend,
)
from .scripted import ScriptedBackend
from .heads import (
    LogisticHead,
    SoftmaxHead,
    feature_fingerprint,
    load_head,
    save_head,
    train_head,
)
from .baseline import (
    PAIR_FEATURE_NAMES,
    BaselineModel,
    PairBaselineModel,
    TfidfVectorizer,
    pair_features,
    train_baseline,
    train_pair_baseline,
)

__all__ = [
    "ENV_AUTH_TOKEN", "Backend", "RemoteBackend",
    "ScriptedBackend",
    "LogisticHead", "SoftmaxHead", "feature_fingerprint", "load_head",
    "save_head", "train_head",
    "PAIR_FEATURE_NAMES", "BaselineModel", "PairBaselineModel",
    "TfidfVectorizer", "pair_features", "train_baseline", "train_pair_baseline",
]
