// Autocluster keys: structural expression equality, the match signature
// (what an ad's Requirements reads of the ad itself), and the machine-side
// test for expressions that read the TARGET ad.
#include <gtest/gtest.h>

#include "classad/classad.hpp"
#include "classad/parser.hpp"

namespace phisched::classad {
namespace {

TEST(SameExpr, StructuralNotTextual) {
  EXPECT_TRUE(same_expr(parse("MY.a >= 1 && TARGET.b"),
                        parse("MY.a>=1&&TARGET.b")));
  EXPECT_FALSE(same_expr(parse("MY.a >= 1"), parse("MY.a > 1")));
  EXPECT_FALSE(same_expr(parse("MY.a"), parse("TARGET.a")));
  EXPECT_FALSE(same_expr(parse("a"), parse("MY.a")));
  EXPECT_FALSE(same_expr(parse("1"), parse("1.0")));
  EXPECT_FALSE(same_expr(parse("\"x\""), parse("\"X\"")));
  // Reals compare bit for bit: %g-style rendering would merge these.
  EXPECT_FALSE(same_expr(make_literal(Value::real(1.0000001)),
                         make_literal(Value::real(1.0000002))));
  EXPECT_FALSE(same_expr(make_literal(Value::real(0.0)),
                         make_literal(Value::real(-0.0))));
  const ExprPtr shared = parse("size(\"abc\") == 3");
  EXPECT_TRUE(same_expr(shared, shared));
  EXPECT_TRUE(same_expr(nullptr, nullptr));
  EXPECT_FALSE(same_expr(shared, nullptr));
}

ClassAd job(std::int64_t mem, std::int64_t id) {
  ClassAd ad;
  ad.insert_integer("JobId", id);
  ad.insert_integer("RequestPhiMemory", mem);
  ad.insert_expr("Requirements",
                 "TARGET.PhiFreeMemory >= MY.RequestPhiMemory");
  return ad;
}

TEST(MatchSignature, IgnoresAttributesRequirementsNeverReads) {
  // JobId differs, but Requirements never reads it.
  EXPECT_EQ(match_signature(job(1000, 1)), match_signature(job(1000, 2)));
  EXPECT_NE(match_signature(job(1000, 1)), match_signature(job(2000, 1)));
}

TEST(MatchSignature, FollowsReadAttributesTransitively) {
  ClassAd a;
  a.insert_expr("Requirements", "MY.Big && TARGET.FreeSlots >= 1");
  a.insert_expr("Big", "RequestPhiMemory > 1500");
  a.insert_integer("RequestPhiMemory", 2000);
  ClassAd b = a;
  b.insert_integer("RequestPhiMemory", 1000);
  EXPECT_NE(match_signature(a), match_signature(b));
  b.insert_integer("RequestPhiMemory", 2000);
  EXPECT_EQ(match_signature(a), match_signature(b));
}

TEST(MatchSignature, BareNameDefinedOrNotDiffers) {
  // A bare name the ad lacks resolves in the TARGET; defining it
  // shadows the machine's value, so the two must not group.
  ClassAd plain;
  plain.insert_expr("Requirements", "PhiFreeMemory >= 1000");
  ClassAd shadowing = plain;
  shadowing.insert_integer("PhiFreeMemory", 5000);
  EXPECT_NE(match_signature(plain), match_signature(shadowing));
}

TEST(MatchSignature, ReferenceCyclesTerminate) {
  ClassAd ad;
  ad.insert_expr("Requirements", "MY.a");
  ad.insert_expr("a", "MY.b + 1");
  ad.insert_expr("b", "MY.a");
  const MatchSignature sig = match_signature(ad);
  EXPECT_EQ(sig.reads.size(), 2u);
  EXPECT_EQ(sig, match_signature(ad));
}

TEST(MatchSignature, NoRequirementsAcceptsAnything) {
  ClassAd a;
  a.insert_integer("x", 1);
  ClassAd b;
  EXPECT_EQ(match_signature(a), match_signature(b));
  EXPECT_EQ(match_signature(a).requirements, nullptr);
}

TEST(ReadsTarget, TargetAndUnresolvedBareNames) {
  ClassAd machine;
  machine.insert_integer("FreeSlots", 1);
  machine.insert_expr("Requirements", "MY.FreeSlots >= 1");
  EXPECT_FALSE(machine.reads_target());
  machine.insert_expr("Requirements", "FreeSlots >= 1");  // defined here
  EXPECT_FALSE(machine.reads_target());
  machine.insert_expr("Requirements", "RequestPhiMemory < 4000");
  EXPECT_TRUE(machine.reads_target());
  machine.insert_expr("Requirements", "true");
  machine.insert_expr("Limit", "TARGET.RequestPhiMemory");
  EXPECT_TRUE(machine.reads_target());
}

}  // namespace
}  // namespace phisched::classad
