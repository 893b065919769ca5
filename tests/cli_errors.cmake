# CLI error-path checks: each bad invocation must exit non-zero and
# say something useful on stderr — never abort via vantage_assert.
# Driven by tests/CMakeLists.txt (test name: cli_errors).
#
# Expects: -DVSIM=<path to the vsim binary> and -DDATA=<tests/data>.

if(NOT VSIM OR NOT DATA)
    message(FATAL_ERROR "pass -DVSIM=<vsim binary> -DDATA=<tests/data>")
endif()

# expect_error(<description> <expected stderr substring> <args...>)
function(expect_error desc expect)
    execute_process(
        COMMAND ${VSIM} ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(rc EQUAL 0)
        message(FATAL_ERROR
            "${desc}: expected failure, got exit 0\nstdout: ${out}")
    endif()
    # An assert abort exits via SIGABRT (rc is a signal string);
    # parse errors must exit(1) with a clean message instead.
    if(NOT rc EQUAL 1)
        message(FATAL_ERROR
            "${desc}: expected exit 1, got '${rc}'\nstderr: ${err}")
    endif()
    string(FIND "${err}" "${expect}" found)
    if(found EQUAL -1)
        message(FATAL_ERROR
            "${desc}: stderr missing '${expect}'\nstderr: ${err}")
    endif()
endfunction()

expect_error("zero jobs" "bad --jobs value" --jobs 0)
expect_error("non-numeric jobs" "bad --jobs value" --jobs lots)
expect_error("unmanaged too big" "--unmanaged must be in (0, 1)"
    --unmanaged 1.5)
expect_error("unmanaged zero" "--unmanaged must be in (0, 1)"
    --unmanaged 0)
expect_error("negative unmanaged" "--unmanaged must be in (0, 1)"
    --unmanaged=-0.2)
expect_error("amax out of range" "--amax must be in (0, 1]"
    --amax 1.5)
expect_error("slack out of range" "--slack must be in (0, 1)"
    --slack 0)
expect_error("unknown option" "unknown option '--frobnicate'"
    --frobnicate=3)
expect_error("unknown scheme" "unknown scheme 'zcache'"
    --scheme zcache)
expect_error("flag with value" "--digest takes no value" --digest=1)
expect_error("two workloads" "choose one of --mix / --apps / --traces"
    --mix 3 --apps libquantum)
expect_error("zero repartition interval" "bad --repartition value"
    --repartition 0 --mix 3 --instrs 2000 --warmup 200)
expect_error("zero banks" "bad --banks value" --banks 0)
expect_error("non-numeric banks" "bad --banks value" --banks lots)
expect_error("banks out of range" "bad --banks value" --banks 2000)
expect_error("banks do not divide lines"
    "--banks must divide the L2 line count" --banks 7)

expect_error("bad serve port" "bad --serve port" --serve 99999)
expect_error("non-numeric serve port" "bad --serve port" --serve http)
expect_error("serve plus replay"
    "choose one of --serve / --replay / --lifecycle"
    --serve 0 --replay /tmp/nope.journal)
expect_error("lifecycle plus replay"
    "choose one of --serve / --replay / --lifecycle"
    --lifecycle 1000 --replay /tmp/nope.journal)
expect_error("zero lifecycle" "bad --lifecycle value" --lifecycle 0)
# The tenant modes simulate a flat L2: --banks is refused, not
# silently ignored.
expect_error("banks with lifecycle" "--banks does not apply"
    --lifecycle 20000 --banks 8)
expect_error("banks with serve" "--banks does not apply"
    --serve 0 --banks 8)
expect_error("banks with replay" "--banks does not apply"
    --replay /tmp/nope.journal --banks 8)
# Observability options a tenant mode would silently drop are
# refused too, naming the mode: one case per flag family.
expect_error("heartbeat with lifecycle"
    "--heartbeat does not apply to --lifecycle"
    --lifecycle 20000 --heartbeat 1000)
expect_error("stats export with serve"
    "--stats-out does not apply to --serve"
    --serve 0 --stats-out /tmp/nope.json)
expect_error("metrics port with lifecycle"
    "--metrics-port does not apply to --lifecycle"
    --lifecycle 20000 --metrics-port 0)
expect_error("slo with replay" "--slo does not apply to --replay"
    --replay /tmp/nope.journal --slo slack=0.1)
expect_error("journal without mode"
    "--serve-journal requires --serve or --lifecycle"
    --serve-journal /tmp/nope.journal)
expect_error("max tenants out of range" "bad --max-tenants value"
    --max-tenants 0)
expect_error("zero epoch" "bad --epoch value" --epoch 0)
expect_error("negative epoch" "bad --epoch value" --epoch=-1000)
expect_error("missing replay file" "cannot open journal"
    --replay /nonexistent/missing.journal)
# Well-formed journals with an impossible tenant lifecycle: the
# 72-byte header of a `vsim --lifecycle 2000` journal followed by one
# bad record (two for the double JOIN). load() rejects each at the
# record's byte offset before any access is simulated.
expect_error("access without join" "ACCESS for inactive slot 0 at byte 72"
    --replay ${DATA}/journal_access_without_join.vsrj)
expect_error("double join" "JOIN into occupied slot 0 at byte 84"
    --replay ${DATA}/journal_double_join.vsrj)
expect_error("leave without join" "LEAVE of inactive slot 0 at byte 72"
    --replay ${DATA}/journal_leave_without_join.vsrj)

# L2 geometry the array constructors would assert on.
expect_error("l2 lines not a multiple of the ways"
    "12345 L2 lines do not divide into 4 ways" --l2-lines 12345)
expect_error("l2 lines per way not a power of two"
    "48 L2 lines give 12 lines per way, not a power of two"
    --l2-lines 48)

# Observability cadences: zero and negative values must exit with a
# clean parse error (strtoull alone would wrap "-5" to 2^64-5 and
# silently accept it).
expect_error("zero stats period" "bad --stats-period value"
    --stats-period 0)
expect_error("negative stats period" "bad --stats-period value"
    --stats-period=-5)
expect_error("zero metrics period" "bad --metrics-period-ms value"
    --metrics-period-ms 0)
expect_error("negative metrics period" "bad --metrics-period-ms value"
    --metrics-period-ms=-250)
expect_error("zero heartbeat" "bad --heartbeat value" --heartbeat 0)
expect_error("negative heartbeat" "bad --heartbeat value"
    --heartbeat=-1)

# QoS engine spec grammar.
expect_error("empty slo" "bad --slo value" --slo=)
expect_error("unknown slo key" "bad --slo spec" --slo frobs=1)
expect_error("non-numeric slo value" "bad --slo spec"
    --slo slack=banana)
# (Empty ';;' clauses are covered in test_qos — a literal ';' cannot
# survive CMake list expansion here.)
expect_error("empty slo value" "bad --slo spec" --slo slack=)
expect_error("empty qos out" "bad --qos-out value" --qos-out=)

message(STATUS "all CLI error paths exit 1 with a message")
