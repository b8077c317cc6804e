"""The (nu, zeta) mode rows of a `modal_report`, and the pick of the one
nearest a frequency that the platform-damping checks read.  A mode is
oscillatory, one conjugate pair, iff |zeta| < 1."""


def modes(rows: dict) -> list[tuple[float, float]]:
    """(nu, zeta) of each `mode_i_nu [rad/s]`, `mode_i_zeta [-]` row pair,
    in row order."""
    n = sum(name.startswith("mode_") for name in rows) // 2
    return [(rows[f"mode_{i}_nu [rad/s]"], rows[f"mode_{i}_zeta [-]"])
            for i in range(n)]


def mode_nearest(rows: dict, nu: float) -> tuple[float, float]:
    """(nu, zeta) of the mode row whose natural frequency is closest to nu."""
    return min(modes(rows), key=lambda mode: abs(mode[0] - nu))
