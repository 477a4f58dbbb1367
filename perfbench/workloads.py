"""Workload definitions: the experiment configs each benchmark pass runs.

Every workload is a list of ``(name, config_dict)`` pairs built from the
benchmark seed; the program under test only ever sees the JSON files the
harness writes from these dicts.  ``scaling`` and ``sweep`` are fixed
lists (the seed only feeds ``bubblelab run --seed``), ``algebra`` draws its
configs from the seed.
"""

import numpy as np

SCHEMA = "bubblelab-config/1"
ALGEBRA_CONFIGS = 216   # three cycles of ALGEBRA_SHAPES
ALGEBRA_TASKS = ("c-vector", "spectrum", "reduced-energy", "critical-point")


def _config(N, tasks, mu=(1.0,), beta=((1.0,),), decomposition=(0, 1),
            holes=None, reduction=None, scaling=None):
    cfg = {
        "schema": SCHEMA,
        "dims": N,
        "coupling": {
            "mu": list(mu),
            "beta": [list(row) for row in beta],
            "decomposition": list(decomposition),
        },
        "domain": {
            "radius": 1.0,
            "holes": holes or [{"center": [0.0] * N, "radius_coeff": 1.0}],
        },
        "tasks": list(tasks),
    }
    if reduction is not None:
        cfg["reduction"] = reduction
    if scaling is not None:
        cfg["scaling"] = scaling
    return cfg


def scaling_configs(seed):
    """The roadmap's scaling baselines: the critical N=4 pair, two N=3
    pairs and the default single/weighted families in both dimensions."""
    task = ("scaling-checks",)
    return [
        ("n3_default_families", _config(3, task)),
        ("n4_default_families", _config(4, task)),
        ("n3_pair_q1_1", _config(3, task, scaling={"pair": [{"q1": 1, "q2": 1}]})),
        ("n3_pair_q3_3", _config(3, task, scaling={"pair": [{"q1": 3, "q2": 3}]})),
        ("n4_pair_q2_2", _config(4, task, scaling={"pair": [{"q1": 2, "q2": 2}]})),
    ]


def _sweep_config(N, n_nodes, radius_coeff=1.0, epsilon_grid=None):
    tasks = ["c-vector", "reduced-energy", "critical-point", "radial-sweep"]
    if N == 4:
        tasks.insert(1, "spectrum")
    reduction = {"n_nodes": n_nodes}
    if epsilon_grid is not None:
        reduction["epsilon_grid"] = epsilon_grid
    holes = [{"center": [0.0] * N, "radius_coeff": radius_coeff}]
    return _config(N, tasks, holes=holes, reduction=reduction)


N3_GRID = {"start": 3e-3, "stop": 1e-4, "num": 8}


def sweep_configs(seed):
    """Radial sweeps plus the algebra tasks on a single centered hole."""
    return [
        ("n4_nodes2k", _sweep_config(4, 2000)),
        ("n4_nodes20k", _sweep_config(4, 20000)),
        ("n4_nodes100k", _sweep_config(4, 100000)),
        ("n3_nodes20k_hole1", _sweep_config(3, 20000, 1.0, N3_GRID)),
        ("n3_nodes20k_hole2", _sweep_config(3, 20000, 2.0, N3_GRID)),
    ]


# The known failure: the N=3 sweep on the default eps grid ends in a
# ZeroDivisionError at 20k nodes.  It is not in the timed sweep pass; each
# sweep run executes it once, untimed, and reports it beside the metrics.
SWEEP_KNOWN_FAILURE = ("n3_nodes20k_default_grid", _sweep_config(3, 20000))


def _holes(rng, N, count):
    """`count` disjoint interior hole centers, at least 0.05 apart."""
    centers = []
    while len(centers) < count:
        x = rng.uniform(-0.7, 0.7, N)
        if np.linalg.norm(x) < 0.7 and all(
            np.linalg.norm(x - c) > 0.05 for c in centers
        ):
            centers.append(x)
    return [
        {"center": [round(float(v), 6) for v in c],
         "radius_coeff": round(float(rng.uniform(0.5, 2.0)), 6)}
        for c in centers
    ]


def _coupling(rng, m, n_groups):
    """Positive mu, `n_groups` contiguous groups, and inside each group a
    strictly diagonally dominant block with negative couplings, so every
    group has a positive amplitude vector; couplings between groups are
    arbitrary."""
    cuts = sorted(rng.choice(np.arange(1, m), n_groups - 1, replace=False))
    decomposition = [0, *[int(c) for c in cuts], m]
    mu = np.round(rng.uniform(0.5, 2.0, m), 6)
    beta = np.round(rng.uniform(-0.2, 0.2, (m, m)), 6)
    for lo, hi in zip(decomposition[:-1], decomposition[1:]):
        k = hi - lo
        for i in range(lo, hi):
            for j in range(lo, hi):
                if i != j:
                    x = rng.uniform(0.05, 0.9) / max(k - 1, 1)
                    beta[i, j] = -round(float(x * np.sqrt(mu[i] * mu[j])), 6)
    beta = np.triu(beta, 1)
    beta = beta + beta.T + np.diag(mu)
    return mu.tolist(), beta.tolist(), decomposition


# every (N, components, groups) shape with N in {3, 4} and 1 <= groups <= m <= 8
ALGEBRA_SHAPES = [
    (N, m, g) for N in (3, 4) for m in range(1, 9) for g in range(1, m + 1)
]


def algebra_configs(seed, count=ALGEBRA_CONFIGS):
    """Seeded random algebra configs: N in {3, 4}, 1-8 components in
    contiguous groups, one disjoint interior hole per group.

    The shapes cycle through ``ALGEBRA_SHAPES`` in a fixed order, so every
    seed has the same mix of sizes and a pass costs about the same whatever
    the seed; the seed draws the couplings, the group boundaries and the
    holes."""
    rng = np.random.default_rng([seed, 0xB0BB1E])
    configs = []
    for k in range(count):
        N, m, n_groups = ALGEBRA_SHAPES[k % len(ALGEBRA_SHAPES)]
        mu, beta, decomposition = _coupling(rng, m, n_groups)
        holes = _holes(rng, N, n_groups)
        tasks = [t for t in ALGEBRA_TASKS if N == 4 or t != "spectrum"]
        configs.append((
            f"{k:03d}_n{N}_m{m}_g{n_groups}",
            _config(N, tasks, mu, beta, decomposition, holes),
        ))
    return configs


WORKLOADS = {
    "scaling": scaling_configs,
    "sweep": sweep_configs,
    "algebra": algebra_configs,
}
