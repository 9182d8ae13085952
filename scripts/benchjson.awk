# Summarizes `go test -bench` output as JSON in the BENCH_baseline.json
# schema: goos/goarch/cpu from the run header, then per-benchmark
# ns_per_op sample lists and means, so a run is directly comparable to
# the recorded BENCH_*.json trajectory files. Rows run with -benchmem
# also carry bytes_per_op and allocs_per_op, samples and means. Used by
# `make bench`, `make bench-udp` and `make bench-allocs`.
/^goos: /   { goos = $2 }
/^goarch: / { goarch = $2 }
/^cpu: /    { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
    # "BenchmarkName-8   1234   5678 ns/op ..." — strip the GOMAXPROCS
    # suffix so repeated -count runs aggregate under one name.
    name = $1
    sub(/-[0-9]+$/, "", name)
    for (i = 2; i < NF; i++) {
        if ($(i + 1) == "ns/op") {
            if (!(name in samples)) order[++n] = name
            samples[name] = samples[name] == "" ? $i : samples[name] ", " $i
            sum[name] += $i
            cnt[name]++
        } else if ($(i + 1) == "B/op") {
            bytes[name] = bytes[name] == "" ? $i : bytes[name] ", " $i
            bsum[name] += $i
        } else if ($(i + 1) == "allocs/op") {
            allocs[name] = allocs[name] == "" ? $i : allocs[name] ", " $i
            asum[name] += $i
        }
    }
}
END {
    printf "{\n"
    printf "  \"command\": \"%s\",\n", cmd == "" ? "make bench" : cmd
    printf "  \"goos\": \"%s\",\n", goos
    printf "  \"goarch\": \"%s\",\n", goarch
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"results\": {\n"
    for (i = 1; i <= n; i++) {
        name = order[i]
        printf "    \"%s\": {\n", name
        printf "      \"ns_per_op\": [%s],\n", samples[name]
        printf "      \"mean_ns_per_op\": %d", sum[name] / cnt[name]
        if (name in bytes) {
            printf ",\n      \"bytes_per_op\": [%s],\n", bytes[name]
            printf "      \"mean_bytes_per_op\": %d,\n", bsum[name] / cnt[name]
            printf "      \"allocs_per_op\": [%s],\n", allocs[name]
            printf "      \"mean_allocs_per_op\": %d", asum[name] / cnt[name]
        }
        printf "\n"
        printf "    }%s\n", i < n ? "," : ""
    }
    printf "  }\n"
    printf "}\n"
}
