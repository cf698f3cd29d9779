"""Closed-form worst cases of the equal-weight stabilizer schemes.

Exact rationals, so a test can demand the library's correctly rounded
float bit for bit: float(Fraction) rounds correctly.
"""

from fractions import Fraction


def full_strategy_q(num_qubits: int) -> Fraction:
    """Worst-case orthogonal acceptance of the all-elements mixture."""
    return Fraction(2 ** (num_qubits - 1) - 1, 2**num_qubits - 1)


def generator_strategy_q(num_generators: int) -> Fraction:
    """Worst-case orthogonal acceptance of the generators-only mixture."""
    return 1 - Fraction(1, num_generators)
