"""Registered benchmark tasks, one module per area.

Importing a module here registers its tasks (the
:func:`repro.bench.registry.register` decorator runs at import);
:func:`repro.bench.registry.load_all_tasks` imports all of them.
A task checks the paper's claim it reproduces with its own ``assert``
statements, so every run - the tier-1 smoke run included - is also a
test of the numbers it records.
"""
