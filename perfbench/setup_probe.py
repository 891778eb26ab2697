"""Set-up time of one workload in a fresh interpreter.

Times from this script's first line to the end of the workload's first
simulated cycle: importing the package, building every point's
architecture config, building each distinct fabric's network (with its
routing tables and their deadlock proof), constructing the first
point's traffic and simulator, and stepping one cycle.  Prints
``{"setup_s": ...}``::

    python3 perfbench/setup_probe.py --workload point_loaded --seed 1
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    import workloads
    from repro.noc.simulator import Simulator
    from repro.traffic.nuca import NucaUniformTraffic
    from repro.traffic.synthetic import UniformRandomTraffic

    workload = workloads.WORKLOADS[args.workload]
    seed = workloads.program_seed(args.seed)
    settings = workloads.settings_for(workload, seed, args.smoke)
    specs = workloads.specs_for(workload, seed)
    networks = {}
    for spec in specs:
        if spec.arch_name not in networks:
            networks[spec.arch_name] = spec.config.build_network()
    first = specs[0]
    if first.kind == "uniform":
        traffic = UniformRandomTraffic(
            num_nodes=first.config.num_nodes, flit_rate=first.rate, seed=seed
        )
    else:
        traffic = NucaUniformTraffic(
            cpu_nodes=first.config.cpu_nodes,
            cache_nodes=first.config.cache_nodes,
            request_rate=first.rate,
            seed=seed,
        )
    network = networks[first.arch_name]
    Simulator(
        network, traffic,
        warmup_cycles=settings.warmup_cycles,
        measure_cycles=settings.measure_cycles,
        drain_cycles=settings.drain_cycles,
    )
    for packet in traffic.packets_for_cycle(network.cycle):
        network.enqueue_packet(packet)
    network.step()
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
