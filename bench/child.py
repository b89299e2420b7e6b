"""Fresh-process half of the benchmark; ``run.py`` starts it.

    child.py setup <workload> [SPANS]    the workload's set-up, then exit
    child.py cli SPANS <gaussrenyi argv>  gaussrenyi.cli.main(argv) under the tracer

With SPANS the public entry points are wrapped and the spans, rooted in
one span named ``process``, are written to that file at exit.
"""

import json
import sys


def main(argv):
    mode = argv[0]
    if mode == "setup" and len(argv) == 2:
        if argv[1] == "cli-batch":
            import gaussrenyi.cli  # noqa: F401  (a CLI user pays this on every run)
        else:
            import workloads

            workloads.warm_setup(workloads.SETUP_ORDER[argv[1]])
        return 0

    import spans

    tracer = spans.Tracer()
    tracer.begin("process")
    if mode == "setup":
        import workloads

        spans.install(tracer)
        workloads.warm_setup(workloads.SETUP_ORDER[argv[1]])
        code, path = 0, argv[2]
    else:
        tracer.begin("cli.import")
        import gaussrenyi.cli

        tracer.end()
        spans.install(tracer)
        code, path = gaussrenyi.cli.main(argv[2:]), argv[1]
    tracer.end()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
