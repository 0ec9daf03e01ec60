"""Workload sizes: signal directories per workload and the fleet tables.

Only signal values depend on the seed, never the sizes, so every seed does
the same work.
"""

PHM_TRAIN = ("Bearing1_1", "Bearing1_2")
PHM_TEST = ("Bearing1_3", "Bearing1_4", "Bearing1_5", "Bearing1_6", "Bearing1_7")

# Test bearing 1_3 is longer than the 61-point smoothing frame and the
# other test bearings are shorter, so both smoothing paths run.
RMS_SPEC = {
    "Bearing1_1": {"format": "phm", "files": 40},
    "Bearing1_2": {"format": "phm", "files": 36},
    "Bearing1_3": {"format": "phm", "files": 64},
    "Bearing1_4": {"format": "phm", "files": 24},
    "Bearing1_5": {"format": "phm", "files": 32},
    "Bearing1_6": {"format": "phm", "files": 28},
    "Bearing1_7": {"format": "phm", "files": 20},
    "1st_test": {"format": "ims", "test": "1st_test", "files": 12, "channel": 6},
    "2nd_test": {"format": "ims", "test": "2nd_test", "files": 10, "channel": 0},
}

NONLINEAR_SPEC = {
    "Bearing1_3": {"format": "phm", "files": 4},
    "2nd_test": {"format": "ims", "test": "2nd_test", "files": 3, "channel": 0},
}

FLEET = {"train_bearings": 4, "test_bearings": 5, "n_obs": 750,
         "n_features": 3, "regimes": 3, "noise": 0.05}

SPECS = {"rms_protocol": RMS_SPEC, "nonlinear_features": NONLINEAR_SPEC,
         "fleet_train_monitor": None}
