"""Experiment settings that cannot run, each with the error text that both
`run_full_experiment` and `vidmem experiment` give for it."""

BAD_SETTINGS = {
    "seeds-not-list": ({"seeds": 3}, "'seeds' must be a non-empty list of integers"),
    "no-seeds": ({"seeds": []}, "'seeds' must be a non-empty list of integers"),
    "boolean-seed": ({"seeds": [True]}, "'seeds' must be a non-empty list of integers"),
    "float-seed": ({"seeds": [1.5]}, "'seeds' must be a non-empty list of integers"),
    "negative-seed": ({"seeds": [0, -1]}, "'seeds' must be >= 0, got -1"),
    "repeated-seed": ({"seeds": [0, 1, 0]}, "'seeds' must be distinct, got 0 more than once"),
    "bucket-not-number": ({"bucket": "x"}, "'bucket' must be a number"),
    "bucket-not-reciprocal": ({"bucket": 0.3},
                              "1/bucket must be an integer, got 3.3333333333333335"),
    "bucket-zero": ({"bucket": 0}, "bucket must lie in (0, 1], got 0"),
    "train-fraction-not-number": ({"train_fraction": "x"}, "'train_fraction' must be a number"),
    "train-fraction-out-of-range": ({"train_fraction": 1.5}, "train fraction must lie in (0, 1)"),
    "unknown-aggregation": ({"aggregation": "mode"}, "unknown aggregation 'mode'"),
    "workers-float": ({"workers": 1.5}, "'workers' must be an integer"),
    "workers-string": ({"workers": "2"}, "'workers' must be an integer"),
}
