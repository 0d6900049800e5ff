"""Output values recorded at the default seed (20260816), full size.

Generated from the CSVs the ``converge`` and ``stability`` workloads write
at the default seed. checks.py compares blow-up tallies exactly and RMS and
mean-square values within its relative tolerance. ``em`` at h = 0.125 has a
surviving path whose squared norm overflows at t = 1, so its recorded mean
square there is infinite.
"""

from math import inf

# RMS terminal error per scheme at h = 2^-6 .. 2^-11
CONVERGE_RMS = {
    'semi-tamed-milstein': [
        0.025244556081859458,
        0.012945200203167388,
        0.006178697123882885,
        0.0030093298539609977,
        0.00146948653588462,
        0.0006975364430799007,
    ],
    'semi-tamed-euler': [
        0.04146794269076216,
        0.02538108364648134,
        0.016623287846518984,
        0.011282092305939958,
        0.007832124810114475,
        0.005312640759625415,
    ],
}

# final blow-up tally per scheme at h = 0.25, 0.125, 0.0625
STABILITY_BLOWN = {
    'em': [316, 63, 3],
    'tamed-euler': [0, 0, 0],
    'semi-tamed-euler': [0, 0, 0],
    'tamed-milstein': [0, 0, 0],
    'semi-tamed-milstein': [0, 0, 0],
}

# (t, mean square) per scheme at h = 0.25, 0.125, 0.0625
STABILITY_MEAN_SQUARE = {
    'em': [
        [(1.0, 2.6312016616371037e+74), (5.0, 1.8475558848701353e-05)],
        [(1.0, inf), (5.0, 3.906086026045736e-08)],
        [(1.0, 0.02060438397030151), (5.0, 7.780141256429774e-08)],
    ],
    'tamed-euler': [
        [(1.0, 0.5282448945254877), (5.0, 31.216345029941877)],
        [(1.0, 0.09279517567402536), (5.0, 1.277245777884388e-07)],
        [(1.0, 0.033465139678821726), (5.0, 1.3054911536787663e-07)],
    ],
    'semi-tamed-euler': [
        [(1.0, 0.14820590834866013), (5.0, 1.67626281717859e-05)],
        [(1.0, 0.02634628551434156), (5.0, 3.81516453208893e-08)],
        [(1.0, 0.0228843208401029), (5.0, 7.940189663797356e-08)],
    ],
    'tamed-milstein': [
        [(1.0, 1.4887670211454123), (5.0, 57.22232857576505)],
        [(1.0, 0.17528636509187942), (5.0, 4.723997101219483e-07)],
        [(1.0, 0.03806171400510373), (5.0, 1.4682702857642195e-07)],
    ],
    'semi-tamed-milstein': [
        [(1.0, 0.2981310941253906), (5.0, 2.550450329297016e-07)],
        [(1.0, 0.015089229932112709), (5.0, 1.4501023711660887e-09)],
        [(1.0, 0.019538123162907664), (5.0, 8.735555041997676e-08)],
    ],
}
