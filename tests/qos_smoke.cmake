# End-to-end QoS smoke test, driven from ctest.
#
# Drives the QoS engine through both simulators (CmpSim, TenantSim)
# and validates each --qos-out stream with scripts/check_qos.py
# (schema, state machine order, the expected violation kind, the
# audit tail):
#
#  - a workload run (CmpSim) under an unholdable 1% slack band must
#    raise slack violations;
#  - a --lifecycle run (TenantSim) under a 1% miss-rate degradation
#    bound must raise miss_rate violations.
#
# Invoked with -DVSIM=... -DPYTHON=... -DCHECKER=... -DWORKDIR=...

# qos_case(<name> <expected kind> <vsim args...>)
function(qos_case name kind)
    set(out "${WORKDIR}/qos_smoke.${name}.jsonl")
    file(REMOVE "${out}")
    execute_process(
        COMMAND "${VSIM}" ${ARGN} --qos-out "${out}"
        RESULT_VARIABLE rc
        OUTPUT_QUIET
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${name}: vsim exited with ${rc}\n${err}")
    endif()
    execute_process(
        COMMAND "${PYTHON}" "${CHECKER}" "${out}"
            --expect-violation ${kind} --require-decisions
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${name}: check_qos.py rejected ${out}")
    endif()
endfunction()

qos_case(workload slack
    --mix 3 --instrs 400000 --epoch 20000
    --slo "slack=0.01,aperture_bp=3000")
qos_case(lifecycle miss_rate
    --lifecycle 400000 --epoch 20000 --slo missrate=0.01)
