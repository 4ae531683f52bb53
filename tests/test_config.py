"""Tests for configuration objects."""

from __future__ import annotations

import dataclasses

import pytest

from repro import Backend, ConfigError, PPRConfig, Phase, PushVariant
from repro.config import (
    ApiConfig,
    ClusterConfig,
    ServeConfig,
    ShardConfig,
    StoreConfig,
)


class TestPPRConfig:
    def test_defaults(self):
        config = PPRConfig()
        assert config.alpha == 0.15
        assert config.variant is PushVariant.OPT
        assert config.backend is Backend.PURE

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_bad_alpha(self, alpha):
        with pytest.raises(ConfigError):
            PPRConfig(alpha=alpha)

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -1e-6])
    def test_bad_epsilon(self, epsilon):
        with pytest.raises(ConfigError):
            PPRConfig(epsilon=epsilon)

    def test_bad_workers(self):
        with pytest.raises(ConfigError):
            PPRConfig(workers=0)

    def test_bad_enums(self):
        with pytest.raises(ConfigError):
            PPRConfig(variant="opt")  # type: ignore[arg-type]
        with pytest.raises(ConfigError):
            PPRConfig(backend="numpy")  # type: ignore[arg-type]

    def test_with_(self):
        base = PPRConfig()
        changed = base.with_(epsilon=1e-8, workers=4)
        assert changed.epsilon == 1e-8
        assert changed.workers == 4
        assert base.epsilon == PPRConfig().epsilon  # immutable original

    def test_describe(self):
        text = PPRConfig().describe()
        assert "alpha=0.15" in text
        assert "opt" in text

    def test_frozen(self):
        with pytest.raises(Exception):
            PPRConfig().alpha = 0.5  # type: ignore[misc]


class TestPushVariant:
    def test_table3_matrix(self):
        # Table 3 of the paper, verbatim.
        assert PushVariant.OPT.eager and PushVariant.OPT.local_duplicate_detection
        assert PushVariant.EAGER.eager and not PushVariant.EAGER.local_duplicate_detection
        assert (
            not PushVariant.DUPDETECT.eager
            and PushVariant.DUPDETECT.local_duplicate_detection
        )
        assert (
            not PushVariant.VANILLA.eager
            and not PushVariant.VANILLA.local_duplicate_detection
        )


class TestPhase:
    def test_exceeds_threshold_strictness(self):
        # pushCond is strict: r == epsilon does not activate.
        assert not Phase.POS.exceeds(0.1, 0.1)
        assert not Phase.NEG.exceeds(-0.1, 0.1)


class TestServingConfigSurface:
    """The serving configs' fields, pinned: a new switch — and with it a
    second arm every tier must keep working — is a visible change here,
    not a default nobody outside the tests selects."""

    @pytest.mark.parametrize(
        "cls, names",
        [
            (StoreConfig, ("root", "checkpoint_interval", "retain_checkpoints")),
            (
                ServeConfig,
                ("cache_capacity", "num_hubs", "top_k", "store"),
            ),
            (
                ClusterConfig,
                (
                    "replicas",
                    "max_respawns",
                    "breaker_failures",
                    "breaker_cooldown",
                ),
            ),
            (ApiConfig, ("host", "port", "max_batch", "admission_queue", "obs")),
            (ShardConfig, ("shards", "max_respawns")),
        ],
    )
    def test_fields(self, cls, names):
        assert tuple(field.name for field in dataclasses.fields(cls)) == names
