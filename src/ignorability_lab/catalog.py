"""Built-in example catalog: the worked selection mechanisms as model
documents.  `ignorability-lab examples` emits these; the test suite uses
them as golden files and as the Monte Carlo calibration set."""

SRS_WOR_MINIMAL = """\
[population]
units = 1 2

[grids]
theta = 1/3 2/3

[signal]
alphabet = 0 1
iid 1/3 = 0:2/3 1:1/3
iid 2/3 = 0:1/3 1:2/3

[design]
variant = srs_wor
n = 1

[observation]
scheme = values_only
"""

SRS_WOR_N3 = """\
# three units, draw two without replacement, labels observed
[population]
units = 1 2 3

[grids]
theta = 1/3 2/3

[signal]
alphabet = 0 1
iid 1/3 = 0:2/3 1:1/3
iid 2/3 = 0:1/3 1:2/3

[design]
variant = srs_wor
n = 2

[observation]
scheme = values_and_mapping

[split]
v = signal
v_bar = selection design_variable

[target]
kind = unit_expectation
unit = 1
"""

SRS_WR_DUPLICATES = """\
# with replacement and values only: duplicates are unidentifiable
[population]
units = 1 2

[grids]
theta = 1/3 2/3

[signal]
alphabet = 0 1
iid 1/3 = 0:2/3 1:1/3
iid 2/3 = 0:1/3 1:2/3

[design]
variant = srs_wr
n = 2

[observation]
scheme = values_only

[target]
kind = unit_expectation
"""

SELECT_MAX = """\
# keep only the largest observed value: the canonical informative selection
[population]
units = 1 2

[grids]
theta = 1/2

[signal]
alphabet = 1 2
iid 1/2 = 1:1/2 2:1/2

[design]
variant = select_max

[observation]
scheme = values_only
"""

BERNOULLI_MIXTURE = """\
# the signal parameter leaks into the design: one unit is kept with
# probability theta/2 each, everything with probability 1 - theta
[population]
units = 1 2

[grids]
theta = 1/3 1/2
phi = 1/3 1/2
gamma = 1/3:1/3 1/2:1/2

[signal]
alphabet = 0 1
iid 1/3 = 0:2/3 1:1/3
iid 1/2 = 0:1/2 1:1/2

[design]
variant = mixture
component 0 = 1
component 1 = 2
component 2 = 1 2
weights 1/3 = 1/6 1/6 2/3
weights 1/2 = 1/4 1/4 1/2

[observation]
scheme = values_and_mapping
"""

STRATIFIED = """\
[population]
units = 1 2 3 4

[grids]
theta = 1/2

[signal]
alphabet = 0 1
iid 1/2 = 0:1/2 1:1/2

[design]
variant = stratified
strata = 1 1 2 2
alloc = 1:1 2:1

[observation]
scheme = values_and_mapping
"""

POISSON = """\
[population]
units = 1 2

[grids]
theta = 1/3

[signal]
alphabet = 0 1
iid 1/3 = 0:2/3 1:1/3

[design]
variant = poisson
p = 1/2 1/2

[observation]
scheme = values_and_mapping
"""

CENSUS = """\
# every unit observed with certainty; the deterministic selection makes
# the ignored family a sub-family, so even the grid-label target
# transfers
[population]
units = 1 2

[grids]
theta = 1/3 2/3

[signal]
alphabet = 0 1
iid 1/3 = 0:2/3 1:1/3
iid 2/3 = 0:1/3 1:2/3

[design]
variant = poisson
p = 1 1

[observation]
scheme = values_and_mapping

[target]
kind = grid_label
"""

SAMPLED_WEIGHTS = """\
# each drawn value is tagged with the unit's inclusion probability under
# the realized design
[population]
units = 1 2 3

[grids]
theta = 1/2

[signal]
alphabet = 0 1
iid 1/2 = 0:1/2 1:1/2

[design]
variant = poisson
p = 1/4 1/2 3/4

[observation]
scheme = values_and_sampled_weights
"""

UNORDERED_VALUES = """\
# label-and-order-free data
[population]
units = 1 2 3

[grids]
theta = 1/3

[signal]
alphabet = 0 1
iid 1/3 = 0:2/3 1:1/3

[design]
variant = srs_wr
n = 2

[observation]
scheme = values_only
unordered = true
"""

CORRELATED_JOINT = """\
# explicit joint signal table: perfectly correlated pair
[population]
units = 1 2

[grids]
theta = even odd

[signal]
alphabet = 0 1
joint even = 0,0:1/2 1,1:1/2
joint odd = 0,1:1/2 1,0:1/2

[design]
variant = srs_wor
n = 1

[observation]
scheme = values_and_mapping
"""

CATALOG = {
    "srs_wor_minimal": SRS_WOR_MINIMAL,
    "srs_wor_n3": SRS_WOR_N3,
    "srs_wr_duplicates": SRS_WR_DUPLICATES,
    "select_max": SELECT_MAX,
    "bernoulli_mixture": BERNOULLI_MIXTURE,
    "stratified": STRATIFIED,
    "poisson": POISSON,
    "census": CENSUS,
    "sampled_weights": SAMPLED_WEIGHTS,
    "unordered_values": UNORDERED_VALUES,
    "correlated_joint": CORRELATED_JOINT,
}
