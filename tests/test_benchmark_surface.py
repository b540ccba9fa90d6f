"""What ``perfbench/`` reads of kronkit beyond the command line.

The benchmark traces and counts by name: dropping or reshaping one of these
breaks it, though no kronkit command changes.
"""

import inspect

from kronkit import _kernels, cyclo, orbits, zoo
from kronkit.chartab import CharacterTable, character_table


def test_kernel_names_and_signature():
    assert isinstance(_kernels.IMPLEMENTATION, str)
    # the trace counts orbits.tuples as n ** d from the arguments at positions 3 and 4
    params = list(inspect.signature(_kernels.conjugation_orbit_roots).parameters)
    assert params == ["mul", "inv", "gens", "n", "d"]
    assert orbits._kernels is _kernels


def test_table_values_and_caches():
    T = character_table(zoo.cyclic(3))
    assert "irreps" in vars(CharacterTable)
    assert all(isinstance(v, cyclo.Cyclotomic) for chi in T.irreps for v in chi.values)
    zoo.make_field(4)
    zoo.make_field.cache_clear()
    assert zoo.make_field.cache_info().currsize == 0
