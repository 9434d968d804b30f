"""What the test files share: the table of model variants, the one builder
of an untrained detector from a config, and the tape walker.

A new model variant is one row of ``VARIANTS``: every test of a variant
parametrizes over the table (``variants``), so it runs the new row with no
other edit.
"""

from typing import NamedTuple

import pytest

from dualstream import cli
from dualstream.config import RunConfig
from dualstream.data import generate_scene


class Variant(NamedTuple):
    """A model variant: its config overrides, the name parts of the
    Parameters it draws but drops, and how many it drops."""
    sets: dict
    drops: tuple = ()
    n_dropped: int = 0

    def dropped(self, name):
        return any(part in name for part in self.drops)


SPEAKER = (".sal_speaker.", "dual.speaker_emb.")
TEMPORAL = (".sal_time.",)
# 16 Parameters per dropped block of each of 2 rounds, and the speaker table
VARIANTS = {
    "rounds1": Variant({"model.rounds": 1}),
    "default": Variant({}),
    "rounds3": Variant({"model.rounds": 3}),
    "ablate_speaker": Variant({"model.ablate_speaker": True}, SPEAKER, 33),
    "ablate_temporal": Variant({"model.ablate_temporal": True}, TEMPORAL, 32),
    "ablate_both": Variant({"model.ablate_speaker": True,
                            "model.ablate_temporal": True},
                           SPEAKER + TEMPORAL, 65),
}


def variants(keep=lambda variant: True):
    """The rows ``keep`` accepts, as pytest parameters named by the row."""
    return [pytest.param(v, id=name) for name, v in VARIANTS.items() if keep(v)]


def detector(sets=None, tiny=False):
    """``(cfg, scene 0, model, voice gate)`` of the default config with
    ``sets`` over it; with ``tiny``, of the gradcheck's sizes
    (``cli.TINY``) with ``sets`` over them."""
    cfg = RunConfig({**(cli.TINY if tiny else {}), **(sets or {})})
    return cfg, generate_scene(cfg.gen_config(), 0), *cli.build_detector(cfg)


def cli_sets(sets):
    """``sets`` as the command line's ``--set key=value`` arguments."""
    return [arg for key, value in sets.items()
            for arg in ("--set", f"{key}={value}")]


def tape(root):
    """Every distinct node reachable from ``root`` through ``.parents``."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.parents)
    return list(seen.values())
