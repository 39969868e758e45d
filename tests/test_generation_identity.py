"""Generation gate beyond the default config: pinned digests of data and scripts.

For each config the dataset file bytes and the ground-truth scripts (each
event's team, label, player and template id) are hashed. The digests were
recorded before the generator's hot loops were rewritten; a change to the
renderer or the sampler that moves one RNG draw, one slot fill or one
template pick fails here.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from t3table.synth import GeneratorConfig, generate_with_scripts, write_dataset

_ZERO_MEANS = dict.fromkeys(
    ("goals", "shots", "fouls", "yellow_cards", "red_cards", "corner_kicks", "free_kicks", "offsides"), 0.0
)

CONFIGS = {
    "default": (GeneratorConfig(seed=7), 300),
    "linked": (
        replace(
            GeneratorConfig(seed=11).with_means(red_cards=2.0, goals=4.0, offsides=5.0, free_kicks=14.0),
            filler_rate=0.5,
            foul_free_kick_link=1.0,
            combo_sentence_share=1.0,
            penalty_share=0.5,
            handball_share=0.3,
            dangerous_play_share=0.3,
        ),
        200,
    ),
    "zero": (GeneratorConfig(seed=3).with_means(**_ZERO_MEANS), 20),
}

# (dataset file sha256, scripts sha256)
DIGESTS = {
    "default": (
        "d28ee8fad021e2eebf7cc43667f9db89bf890a50ab1c61ca794e74e05e91db44",
        "2114327c9ce6bf5d5068a539559c7e24ad407715c690ad633f804f5a7f030c05",
    ),
    "linked": (
        "5bf15c734a0c68f32c9dce82954e7c5b5b362d424f2b9e0a7efdc90d97f0bdeb",
        "2a2d6089ac62d1dcd132203a925bb612916e5e48ff671386fab9ca30fbd97012",
    ),
    "zero": (
        "477b51976199dcadc63356f5377bbf2e2d9ae0e65b2b29035cce45f843ca28b9",
        "8cf1da4ff7d8dd721d9a43a5fdeaceebc5e25a7dd851d09c5d9c11f04f18d2cc",
    ),
}


def _digests(name: str, tmp_path: Path) -> tuple[str, str]:
    cfg, n = CONFIGS[name]
    pairs = generate_with_scripts(cfg, n)
    path = tmp_path / "dataset.jsonl"
    write_dataset((inst for inst, _ in pairs), path)
    scripts = hashlib.sha256()
    for inst, script in pairs:
        scripts.update(f"{inst.id}\n".encode())
        for e in script:
            scripts.update(f"{e.team.value}\t{e.label.value}\t{e.player or ''}\t{e.template_id}\n".encode())
    return hashlib.sha256(path.read_bytes()).hexdigest(), scripts.hexdigest()


@pytest.mark.parametrize("name", list(CONFIGS))
def test_generation_bytes_and_scripts_unchanged(name: str, tmp_path: Path) -> None:
    assert _digests(name, tmp_path) == DIGESTS[name]
