// Registry registration semantics (coll/registry.h).
//
// Duplicate registration is a precondition error unless the caller passes
// allow_override: the registry is shared process-global state, and a silent
// last-wins overwrite would let a runtime registrant (e.g. "adaptive", or a
// test-only mutation) shadow a builtin without any diagnostic.
#include <gtest/gtest.h>

#include <memory>

#include "coll/registry.h"
#include "common/require.h"
#include "core/binomial.h"
#include "scc/chip.h"

namespace {

using namespace ocb;

coll::Factory binomial_factory(int parties) {
  return [parties](scc::SccChip& chip, const coll::Params&) {
    return std::make_unique<core::BinomialBcast>(
        chip, coll::Params{.parties = parties});
  };
}

TEST(Registry, DuplicateRegistrationFailsWithDiagnostic) {
  coll::register_collective("registry-test-dup", binomial_factory(8));
  ASSERT_TRUE(coll::registered("registry-test-dup"));
  try {
    coll::register_collective("registry-test-dup", binomial_factory(4));
    FAIL() << "duplicate registration must throw";
  } catch (const PreconditionError& e) {
    // The diagnostic names the colliding algorithm.
    EXPECT_NE(std::string(e.what()).find("registry-test-dup"),
              std::string::npos)
        << e.what();
  }
  // The original factory survived the failed overwrite.
  scc::SccChip chip;
  auto coll = coll::make("registry-test-dup", chip, {});
  EXPECT_EQ(coll->parties(), 8);
}

TEST(Registry, BuiltinsAreProtectedToo) {
  ASSERT_TRUE(coll::registered("ocbcast"));
  EXPECT_THROW(coll::register_collective("ocbcast", binomial_factory(8)),
               PreconditionError);
}

TEST(Registry, AllowOverrideReplacesFactory) {
  coll::register_collective("registry-test-override", binomial_factory(8));
  coll::register_collective("registry-test-override", binomial_factory(16),
                            /*allow_override=*/true);
  scc::SccChip chip;
  auto coll = coll::make("registry-test-override", chip, {});
  EXPECT_EQ(coll->parties(), 16);
}

TEST(Registry, EmptyNameAndNullFactoryRejected) {
  EXPECT_THROW(coll::register_collective("", binomial_factory(8)),
               PreconditionError);
  EXPECT_THROW(coll::register_collective("registry-test-null", coll::Factory{}),
               PreconditionError);
  EXPECT_FALSE(coll::registered("registry-test-null"));
}

TEST(Registry, UnknownNameListsRegisteredAlgorithms) {
  scc::SccChip chip;
  try {
    coll::make("registry-test-no-such-algorithm", chip, {});
    FAIL() << "unknown name must throw";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("registry-test-no-such-algorithm"), std::string::npos);
    EXPECT_NE(what.find("ocbcast"), std::string::npos);
    EXPECT_NE(what.find("binomial"), std::string::npos);
  }
}

}  // namespace
