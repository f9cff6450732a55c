"""Models, sizes and grids of the three workloads.

Every model is a dict in the program's JSON schema (see oracle.py).  This
module imports nothing from carfima, so reference.py can use it alone.
"""

import numpy as np


def model(alpha, H, beta=()):
    return {"p": len(alpha) - 1, "q": len(beta), "alpha": [float(a) for a in alpha],
            "beta": [float(b) for b in beta], "H": float(H), "sigma": 1.0}


# --- simulate -------------------------------------------------------------
SIM_N = 4096
SIM_STEP = 1.0
SIM_PATHS = 50
SIM_MAX_LAG = 20
EULER_SUBSTEPS = 8
SIM_MODELS = {
    "car1_h070": model([0.0, -1.0], 0.7),
    "car1_h025": model([0.0, -0.3], 0.25),
    "carfima_2_h030_1": model([0.0, -1.0, -1.5], 0.3, beta=[0.5]),
}
EULER_MODEL = "car1_h070"

# --- fit ------------------------------------------------------------------
FIT_N = 4096
FIT_STEP = 1.0
FIT_STARTS = 4
FIT_DESIGNS = {
    "car1_h070": model([0.0, -1.0], 0.7),
    "car1_h025": model([0.0, -0.3], 0.25),
    "carfima_2_h070_0": model([0.0, -1.0, -1.5], 0.7),
}
# one cycle: (design, path index); three paths of each p = 1 design and two
# of the p = 2 design, so the median and the rate average over eight fits
FIT_CYCLE = [("car1_h070", 0), ("car1_h025", 0), ("carfima_2_h070_0", 0),
             ("car1_h070", 1), ("car1_h025", 1),
             ("car1_h070", 2), ("car1_h025", 2), ("carfima_2_h070_0", 1)]

# --- tables ---------------------------------------------------------------
TABLE_MODELS = {
    "car1_slow": model([0.0, -0.05], 0.7),
    "car3_pair": model([0.0, -1.25, -2.25, -2.0], 0.3),  # roots -1, -0.5 +- 1i
    "carma_2_1": model([0.0, -1.0, -1.5], 0.5, beta=[0.5]),
    "car1_h070": model([0.0, -1.0], 0.7),
    "carfima_2_h030_1": model([0.0, -1.0, -1.5], 0.3, beta=[0.5]),
}
PI = "3.141592653589793"
# (label, argv); "{model}" and "{out}" are filled in per operation
TABLE_OPS = [
    ("acf_car1_slow", ["acf", "--model", "{car1_slow}", "--lags", "0:800:0.2"]),
    ("acf_car3_pair", ["acf", "--model", "{car3_pair}", "--lags", "0:40:0.01"]),
    ("acf_carma_2_1", ["acf", "--model", "{carma_2_1}", "--lags", "0:40:0.01"]),
    ("acf_quadrature", ["acf", "--model", "{car1_h070}", "--lags", "0:2:0.25",
                        "--method", "quadrature"]),
    ("spectrum_aliased", ["spectrum", "--model", "{carfima_2_h030_1}", "--omegas",
                          f"0:{PI}:4097", "--aliased", "--h", "1.0", "--K", "64"]),
    ("spectrum_continuous", ["spectrum", "--model", "{carfima_2_h030_1}",
                             "--omegas", "0:50:4097"]),
    ("verify", ["verify", "--model", "{car1_h070}"]),
]
# lag-grid indices of the ACF tables checked against the mpmath reference
TABLE_CHECK_INDICES = {
    "acf_car1_slow": [0, 1, 37, 301, 1765, 4000],
    "acf_car3_pair": [0, 1, 37, 301, 1765, 4000],
    "acf_carma_2_1": [0, 1, 37, 301, 1765, 4000],
    "acf_quadrature": list(range(9)),
}


def lag_grid(spec: str) -> np.ndarray:
    """The lags a:b:step as the CLI documents them: a + step * k, k = 0, 1, ..."""
    a, b, step = (float(x) for x in spec.split(":"))
    return a + step * np.arange(int(np.floor((b - a) / step + 1e-9)) + 1)


def omega_grid(spec: str) -> np.ndarray:
    """The frequencies a:b:count, evenly spaced with both ends included."""
    a, b, count = spec.split(":")
    return np.linspace(float(a), float(b), int(count))


def table_arg(label: str, flag: str) -> str:
    argv = dict(TABLE_OPS)[label]
    return argv[argv.index(flag) + 1]


def table_model(label: str) -> str:
    return table_arg(label, "--model").strip("{}")


def table_acf_lags(label: str) -> np.ndarray:
    return lag_grid(table_arg(label, "--lags"))


def reference_points():
    """(model name, model, lags) whose mpmath autocovariance is cached."""
    points = []
    for name, m in SIM_MODELS.items():
        points.append((name, m, [float(k) * SIM_STEP for k in range(SIM_MAX_LAG + 1)]))
    for label, idx in TABLE_CHECK_INDICES.items():
        name = table_model(label)
        points.append((name, TABLE_MODELS[name], [float(x) for x in table_acf_lags(label)[idx]]))
    return points
