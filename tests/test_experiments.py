"""The random machines behind verify's referred-noise check."""

import numpy as np

from cvclone.cloner import ClonerConfig
from cvclone.experiments import _random_configs


def _scalar_config(rng: np.random.Generator) -> ClonerConfig:
    """One machine from ten scalar ``rng.uniform`` draws, in the order
    verify once drew them."""
    vx1 = float(np.exp(rng.uniform(-1.2, 1.2)))
    vx3 = float(np.exp(rng.uniform(-1.2, 1.2)))
    return ClonerConfig(
        t1=float(rng.uniform(0.05, 1.0)),
        t2=float(rng.uniform(0.1, 0.95)),
        g_x=float(rng.uniform(0.0, 2.5)),
        g_p=float(rng.uniform(0.0, 2.5)),
        anc1=(vx1, float(rng.uniform(1.0, 3.0)) / vx1),
        anc3=(vx3, float(rng.uniform(1.0, 3.0)) / vx3),
        eta_ff=float(rng.uniform(0.85, 1.0)),
        visibility=float(rng.uniform(0.9, 1.0)),
    )


def test_one_draw_gives_the_machines_of_ten_scalar_draws_each():
    rng = np.random.default_rng(11)
    reference = [_scalar_config(rng) for _ in range(1000)]
    configs = list(_random_configs(np.random.default_rng(11), 1000))
    assert configs == reference
    assert all(type(x) is float for x in (configs[0].t1, configs[0].anc1[1]))

