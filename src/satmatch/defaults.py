"""The release gate's default scale and seeds.

They live apart from `harness` so that `cli` can show them in
`verify --help` without loading the suites for every other command.
"""

DEFAULT_SEED = 20260816
DEFAULT_MAX_SIDE = 3
DEFAULT_GATE_CAP = 10**4  # check every instance up to this many, else sample
DEFAULT_SEEDS = 200
