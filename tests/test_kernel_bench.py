import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_kernel_bench_prints_one_json_line_of_kernel_times(capsys):
    spec = importlib.util.spec_from_file_location(
        "kernel_bench", os.path.join(ROOT, "scripts", "kernel_bench.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--steps", "2", "--repeats", "1"]) == 0
    [line] = capsys.readouterr().out.splitlines()
    times = json.loads(line)
    assert sorted(times) == ["ensemble_noise_us", "estimate_peak_mb",
                             "input_gradient_f32_us", "input_gradient_us",
                             "sgd_step_us_r5",
                             "sgd_step_us_r50", "split_cell_us",
                             "split_grid_us"]
    assert all(isinstance(v, float) for v in times.values())
    assert all(times[k] > 0 for k in ("input_gradient_us",
                                     "input_gradient_f32_us", "split_cell_us",
                                     "split_grid_us", "estimate_peak_mb"))
