"""Every experiment's rendered output, pinned byte for byte.

Each of the 16 experiments renders at a micro effort with its default
rows or one or two small sweep values.  The sha256 of the rendered text
must not move: a refactor of the experiment layer that changes a title,
a label, a column, a digit or a simulated cell shows up here.  On a
mismatch the assertion message carries the text, so the drift can be
read rather than guessed.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.common import Effort
from repro.experiments.evaluation import run_artefact

#: Two replicates, so every confidence interval has a half-width.
MICRO = Effort(runs=2, sim_time=40.0, message_count=6)

#: Sweep values per experiment; ``None`` keeps its default rows.  The
#: fig4 and table4 loads are large enough that their horizon outgrows
#: the effort's.  ``None`` in ablation-copies is the Algorithm 1 row.
VALUES = {
    "fig1": None,
    "fig3": (0.6, 1.6),
    "fig4": (4, 24),
    "fig5": (4,),
    "fig6": (80.0, 150.0),
    "fig7": (2, 8),
    "table2": None,
    "table3": None,
    "table4": (4, 30),
    "table5": (250.0, 50.0),
    "table6": (60.0, 120.0),
    "ablation-copies": (1, None),
    "ablation-custody-timeout": (2.0, 10.0),
    "ablation-face": None,
    "ablation-protocols": None,
    "ablation-spanner": None,
}

DIGESTS = {
    "ablation-copies": (
        "9113974418ee1adb98a4bcc5d84297699e958a913d45ac822bc7151a383d2397"
    ),
    "ablation-custody-timeout": (
        "aed5fc85e18bf0d144a77cb25d28647495435a3b1eb8b9143b41eaed203b1538"
    ),
    "ablation-face": (
        "cd46f0547c4f52f50e7b09e2b082418486e0641d0faabd08ecbad70d2a4cc396"
    ),
    "ablation-protocols": (
        "77727f0615b73c6fbd5c887b1847f7d255e89d0dd1bad7238b5f2278f28400ca"
    ),
    "ablation-spanner": (
        "334a10c32be102e77f33ed766dea708a8a09c8b244ba2a60b72f73638a4f03b8"
    ),
    "fig1": (
        "79f096e83bfbf9c278d245aa19ed5890e6c9555b08130ebabb4d7bbf06c0b8e3"
    ),
    "fig3": (
        "f4ff98467e7ee340f95ec4a81e896c51fd9ebaf59a8decfe7681d4307d3b7206"
    ),
    "fig4": (
        "edc78947869fee6648616906743104914ead48662418f247d5c3e57723048b54"
    ),
    "fig5": (
        "f8469030cc54dd07fe2c5c74c6ad9903aa1b21f3ced20f36da164dbd5b5a76d1"
    ),
    "fig6": (
        "ba129f28376f9a9797c67663c13659f968b28117ac0ce1b67a07f0a5b1f996f5"
    ),
    "fig7": (
        "162d4e73c8e48883fa8cdbc6b3031896692379fc6be97c3971da6ed8c303d7e5"
    ),
    "table2": (
        "2ad6adc8766521c81353b3e0795c809de81aa25c43cf94fcf55f5f1ceea239e9"
    ),
    "table3": (
        "d5739f073d7d47d181e62d8d85841cf5446b96643bb1d858aa4fd81c838fe5c4"
    ),
    "table4": (
        "6d67cb183c17341681d114e0390b53997cb3fd6d0893ff3f6bc127e94ea4f3d7"
    ),
    "table5": (
        "5d18734c1c7409b94c671253b1da93cbf8c051fc2295dfcc7620bd41ea12b591"
    ),
    "table6": (
        "805645ff46993a9a64a80345fe17e607ee44e5470f466ef0b0e0f2490482dfb1"
    ),
}


def _render(name: str, values: tuple | None) -> str:
    return run_artefact(name, MICRO, seed=1, values=values).render()


@pytest.mark.parametrize("name", sorted(VALUES))
def test_rendered_output_is_pinned(name):
    text = _render(name, VALUES[name])
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == DIGESTS[name], f"{name} now renders:\n{text}"
