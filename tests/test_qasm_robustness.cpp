// Failure-injection tests for the OpenQASM parser: every malformed input must
// raise QasmError (with a line number), never crash or silently mis-parse.
#include "circuit/qasm.h"

#include "bench_circuits/generators.h"
#include "fuzz_mutate.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <random>
#include <string>
#include <vector>

namespace {

using namespace epoc::circuit;

class QasmBadInput : public ::testing::TestWithParam<const char*> {};

TEST_P(QasmBadInput, RaisesQasmError) {
    EXPECT_THROW(parse_qasm(GetParam()), QasmError) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Cases, QasmBadInput,
    ::testing::Values(
        "qreg q[2]; h q[0]",                      // missing semicolon at EOF
        "qreg q[2]; cx q[0];",                    // wrong operand count
        "qreg q[2]; rz() q[0];",                  // rz demands a parameter
        "qreg q[2]; rz(pi q[0];",                 // unbalanced paren
        "qreg q[2]; h r[0];",                     // unknown register
        "qreg q[2]; h q[2];",                     // index out of range
        "qreg q[2]; frobnicate q[0];",            // unknown gate
        "qreg q[2]; rz(bogus) q[0];",             // unknown identifier in expr
        "qreg q[2]; rz(sin(pi) q[0];",            // unbalanced function call
        "gate broken a { h a;",                   // unterminated gate body
        "qreg q[2]; if (c == 1) h q[0];",         // classical control unsupported
        "qreg q[1]; include \"unterminated;",     // unterminated string
        "qreg q[1]; h q[",                        // truncated index
        "qreg q[2]; gate g a,b { h c; } g q[0],q[1];", // unknown body operand
        "qreg q[2]; gate g(x) a { rz(x) a; } g q[0];", // missing param binding
        "qreg q[2]; cx q[0],q[0];",                // duplicate operand
        "qreg q[1]; h q[0]; \"oops",               // unterminated bare string
        "qreg q[2]; qreg q[3]; h q[2];",           // qreg redeclaration
        "qreg q[2]; creg q[2];",                   // creg shadows qreg name
        "qreg q[2]; h q[0],q[1];",                 // builtin gate arity mismatch
        "qreg q[2]; ccx q[0],q[1];",               // 3-qubit gate, 2 operands
        "qreg q[2]; h q[4000000000];",             // index overflows int
        "qreg q[4000000000]; h q[0];",             // register size overflows int
        "qreg q[0]; h q[0];",                      // empty register
        "qreg q[1]; rz(1e999999999) q[0];",        // literal overflows double
        "qreg q[1]; rz(.) q[0];"));                // lone dot is not a number

TEST(QasmRobustness, RedeclarationDoesNotCorruptNumbering) {
    // The old parser silently overwrote the register entry *and* kept
    // growing the qubit count -- indices shifted and gates landed on the
    // wrong wires. Now it must be a hard error, before any gate is emitted.
    try {
        parse_qasm("qreg q[2]; h q[1]; qreg q[2]; cx q[0],q[1];");
        FAIL() << "redeclaration accepted";
    } catch (const QasmError& e) {
        EXPECT_NE(std::string(e.what()).find("already declared"), std::string::npos);
    }
}

TEST(QasmRobustness, HugeIndexReportsRangeNotWraparound) {
    // 2^32 cast to int wraps to 0, which would silently alias q[0]; the
    // parser must range-check on the unconverted value instead.
    try {
        parse_qasm("qreg q[2]; h q[4294967296];");
        FAIL() << "wrapped index accepted";
    } catch (const QasmError& e) {
        EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
    }
}

TEST(QasmRobustness, ErrorLineNumbersMatchCallerSource) {
    // parse_qasm prepends a builtin u2 prelude; it must not shift the
    // reported line numbers off the source the caller actually wrote.
    try {
        parse_qasm("qreg q[1];\nqreg q[1];\n");
        FAIL() << "redeclaration accepted";
    } catch (const QasmError& e) {
        EXPECT_EQ(e.line(), 2);
    }
    try {
        parse_qasm("qreg q[1];\n\n\nh q[99];\n");
        FAIL() << "out-of-range index accepted";
    } catch (const QasmError& e) {
        EXPECT_EQ(e.line(), 4);
    }
}

TEST(QasmRobustness, ErrorsIncludeUsefulText) {
    try {
        parse_qasm("qreg q[1];\nfrobnicate q[0];");
        FAIL();
    } catch (const QasmError& e) {
        EXPECT_NE(std::string(e.what()).find("frobnicate"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("qasm:"), std::string::npos);
    }
}

TEST(QasmRobustness, EmptyProgramIsEmptyCircuit) {
    const Circuit c = parse_qasm("");
    EXPECT_EQ(c.num_qubits(), 0);
    EXPECT_EQ(c.size(), 0u);
}

TEST(QasmRobustness, CommentsAndWhitespaceIgnored) {
    const Circuit c = parse_qasm(
        "// header comment\nqreg q[1];\n\n  // indented\n\th q[0]; // trailing\n");
    EXPECT_EQ(c.size(), 1u);
}

TEST(QasmRobustness, MultipleRegistersConcatenate) {
    const Circuit c = parse_qasm("qreg a[2]; qreg b[3]; h a[1]; x b[0];");
    EXPECT_EQ(c.num_qubits(), 5);
    EXPECT_EQ(c.gate(0).qubits[0], 1);
    EXPECT_EQ(c.gate(1).qubits[0], 2); // b starts after a
}

TEST(QasmRobustness, MeasureBarrierResetIgnored) {
    const Circuit c = parse_qasm(
        "qreg q[2]; creg c[2]; h q[0]; barrier q; measure q -> c; reset q[1];");
    EXPECT_EQ(c.size(), 1u);
}

TEST(QasmRobustness, ScientificNotationNumbers) {
    const Circuit c = parse_qasm("qreg q[1]; rz(1.5e-1) q[0];");
    EXPECT_NEAR(c.gate(0).params[0], 0.15, 1e-12);
}

TEST(QasmRobustness, NestedCustomGates) {
    const std::string src = R"(
qreg q[2];
gate inner a { h a; }
gate outer a,b { inner a; cx a,b; inner b; }
outer q[0],q[1];
)";
    EXPECT_EQ(parse_qasm(src).size(), 3u);
}

TEST(QasmRobustness, DeepExpressionNesting) {
    const Circuit c = parse_qasm("qreg q[1]; rz(-(((pi/2)+1)*2 - sqrt(4))) q[0];");
    EXPECT_NEAR(c.gate(0).params[0], -((3.14159265358979312 / 2 + 1) * 2 - 2), 1e-9);
}

// ---------------------------------------------------------------------------
// Deterministic fuzz smoke test: ~1k seeded mutations of well-formed
// programs (fuzz_mutate.h). The contract under fuzz is binary — parse_qasm
// either returns a circuit or throws QasmError. Any other exception, or a
// crash, fails (and the ASan CI job additionally turns latent memory errors
// into hard failures).

std::vector<std::string> fuzz_corpus() {
    std::vector<std::string> corpus = {
        "qreg q[3]; h q[0]; cx q[0],q[1]; rz(pi/4) q[2]; cx q[1],q[2];",
        "qreg a[2]; qreg b[2]; creg c[2];\n"
        "gate g(x) p,q { rz(x) p; cx p,q; }\n"
        "g(0.5) a[0],b[1]; barrier a; measure a -> c;",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n"
        "u3(pi/2,0,pi) q[0];\ncx q[0],q[1];\n",
    };
    // Real emitted programs: round-trip the benchmark suite through to_qasm
    // so the mutator starts from everything the exporter can produce.
    for (const auto& nc : epoc::bench::figure_suite())
        corpus.push_back(to_qasm(nc.circuit));
    return corpus;
}

TEST(QasmFuzz, SeededMutationsParseOrRaiseQasmErrorNeverCrash) {
    const std::vector<std::string> corpus = fuzz_corpus();
    ASSERT_FALSE(corpus.empty());
    std::mt19937_64 rng(0x45504F43); // "EPOC": fixed seed, deterministic run
    const int kCases = 1000;
    int parsed = 0, rejected = 0;
    for (int i = 0; i < kCases; ++i) {
        const std::string input =
            epoc::test::mutate(corpus[i % corpus.size()], rng, "qh;[](){},.\"\\/*-+0x\n\t ");
        try {
            const Circuit c = parse_qasm(input);
            (void)c.size(); // the returned circuit must at least be readable
            ++parsed;
        } catch (const QasmError&) {
            ++rejected; // the one sanctioned failure mode
        }
        // Anything else (std::bad_alloc aside) propagates and fails the test.
    }
    EXPECT_EQ(parsed + rejected, kCases);
    // Sanity on the mutator itself: it must exercise both outcomes, or the
    // corpus/mutations have gone degenerate and the test is vacuous.
    EXPECT_GT(parsed, 0) << "every mutation broke the program";
    EXPECT_GT(rejected, 0) << "no mutation ever broke the program";
}

} // namespace
