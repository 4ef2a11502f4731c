#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.h"
#include "cube/base_tables.h"
#include "table/csv.h"
#include "table/table.h"
#include "table/table_builder.h"
#include "table/table_ops.h"
#include "tests/test_util.h"

namespace mdjoin {
namespace {

using testutil::ALL;
using testutil::ReferenceDistinctOn;
using testutil::ReferenceGroupingSets;
using testutil::F;
using testutil::I;
using testutil::NUL;
using testutil::S;

Table TwoColumn() {
  TableBuilder b({{"k", DataType::kInt64}, {"v", DataType::kString}});
  b.AppendRowOrDie({I(2), S("b")});
  b.AppendRowOrDie({I(1), S("a")});
  b.AppendRowOrDie({I(2), S("c")});
  b.AppendRowOrDie({I(3), S("a")});
  return std::move(b).Finish();
}

TEST(TableBuilderTest, TypeChecksCells) {
  TableBuilder b({{"k", DataType::kInt64}, {"v", DataType::kString}});
  EXPECT_TRUE(b.AppendRow({I(1), S("x")}).ok());
  EXPECT_TRUE(b.AppendRow({NUL(), ALL()}).ok());  // NULL/ALL fit any column
  EXPECT_TRUE(b.AppendRow({I(1), I(2)}).IsTypeError());
  EXPECT_TRUE(b.AppendRow({I(1)}).IsInvalidArgument());  // arity
}

TEST(TableBuilderTest, NumericColumnsInterchangeable) {
  TableBuilder b({{"x", DataType::kFloat64}});
  EXPECT_TRUE(b.AppendRow({I(3)}).ok());  // int literal into float column
  EXPECT_TRUE(b.AppendRow({F(3.5)}).ok());
}

TEST(TableTest, BasicAccessors) {
  Table t = TwoColumn();
  EXPECT_EQ(t.num_rows(), 4);
  EXPECT_EQ(t.num_columns(), 2);
  EXPECT_EQ(t.Get(0, 0).int64(), 2);
  EXPECT_EQ(t.Get(2, 1).string(), "c");
}

TEST(TableTest, CloneIsIndependent) {
  Table t = TwoColumn();
  Table c = t.Clone();
  c.Set(0, 0, I(99));
  EXPECT_EQ(t.Get(0, 0).int64(), 2);
  EXPECT_EQ(c.Get(0, 0).int64(), 99);
}

TEST(TableTest, GetRowKey) {
  Table t = TwoColumn();
  RowKey key = t.GetRowKey(1, {1, 0});
  ASSERT_EQ(key.size(), 2u);
  EXPECT_EQ(key[0].string(), "a");
  EXPECT_EQ(key[1].int64(), 1);
}

TEST(TableTest, AddColumn) {
  Table t = TwoColumn();
  ASSERT_TRUE(t.AddColumn({"w", DataType::kInt64}, {I(1), I(2), I(3), I(4)}).ok());
  EXPECT_EQ(t.num_columns(), 3);
  EXPECT_EQ(t.Get(3, 2).int64(), 4);
  EXPECT_FALSE(t.AddColumn({"w", DataType::kInt64}, {}).ok());       // duplicate name
  EXPECT_FALSE(t.AddColumn({"z", DataType::kInt64}, {I(1)}).ok());   // wrong length
}

TEST(TableOpsTest, SortByKeyColumns) {
  Table t = TwoColumn();
  Table sorted = SortTable(t, {{0, true}, {1, false}});
  EXPECT_EQ(sorted.Get(0, 0).int64(), 1);
  EXPECT_EQ(sorted.Get(1, 0).int64(), 2);
  EXPECT_EQ(sorted.Get(1, 1).string(), "c");  // descending v within k=2
  EXPECT_EQ(sorted.Get(2, 1).string(), "b");
  EXPECT_EQ(sorted.Get(3, 0).int64(), 3);
}

TEST(TableOpsTest, SortPlacesNullAndAllFirst) {
  TableBuilder b({{"k", DataType::kInt64}});
  b.AppendRowOrDie({I(5)});
  b.AppendRowOrDie({ALL()});
  b.AppendRowOrDie({NUL()});
  Table sorted = SortTable(std::move(b).Finish(), {{0, true}});
  EXPECT_TRUE(sorted.Get(0, 0).is_null());
  EXPECT_TRUE(sorted.Get(1, 0).is_all());
  EXPECT_EQ(sorted.Get(2, 0).int64(), 5);
}

TEST(TableOpsTest, DistinctKeepsFirstOccurrence) {
  TableBuilder b({{"k", DataType::kInt64}});
  for (int64_t v : {3, 1, 3, 2, 1}) b.AppendRowOrDie({I(v)});
  Table d = Distinct(std::move(b).Finish());
  EXPECT_EQ(d.num_rows(), 3);
  EXPECT_EQ(d.Get(0, 0).int64(), 3);
  EXPECT_EQ(d.Get(1, 0).int64(), 1);
  EXPECT_EQ(d.Get(2, 0).int64(), 2);
}

TEST(TableOpsTest, DistinctTreatsAllAsOrdinaryValue) {
  TableBuilder b({{"k", DataType::kInt64}});
  b.AppendRowOrDie({ALL()});
  b.AppendRowOrDie({I(1)});
  b.AppendRowOrDie({ALL()});
  Table d = Distinct(std::move(b).Finish());
  EXPECT_EQ(d.num_rows(), 2);  // ALL deduplicates with ALL, not with 1
}

TEST(TableOpsTest, DistinctOnProjects) {
  Table t = TwoColumn();
  Result<Table> d = DistinctOn(t, {"v"});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->num_columns(), 1);
  EXPECT_EQ(d->num_rows(), 3);  // b, a, c
}

TEST(TableOpsTest, ConcatRequiresMatchingSchemas) {
  Table t = TwoColumn();
  Result<Table> both = Concat(t, TwoColumn());
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(both->num_rows(), 8);
  TableBuilder other({{"z", DataType::kInt64}});
  EXPECT_FALSE(Concat(t, std::move(other).Finish()).ok());
}

TEST(TableOpsTest, PartitionIntoNPreservesAllRows) {
  Table t = testutil::SmallSales();
  std::vector<Table> parts = PartitionIntoN(t, 5);
  ASSERT_EQ(parts.size(), 5u);
  int64_t total = 0;
  for (const Table& p : parts) total += p.num_rows();
  EXPECT_EQ(total, t.num_rows());
  Result<Table> rejoined = ConcatAll(parts);
  ASSERT_TRUE(rejoined.ok());
  EXPECT_TRUE(TablesEqualOrdered(t, *rejoined));  // order-preserving split
}

TEST(TableOpsTest, PartitionIntoMoreThanRows) {
  Table t = TwoColumn();
  std::vector<Table> parts = PartitionIntoN(t, 10);
  ASSERT_EQ(parts.size(), 10u);
  int64_t total = 0;
  for (const Table& p : parts) total += p.num_rows();
  EXPECT_EQ(total, 4);
}

TEST(TableOpsTest, PartitionByColumns) {
  Table t = TwoColumn();
  Result<std::vector<Table>> parts = PartitionByColumns(t, {"k"});
  ASSERT_TRUE(parts.ok());
  EXPECT_EQ(parts->size(), 3u);  // k = 2, 1, 3
  int64_t total = 0;
  for (const Table& p : *parts) total += p.num_rows();
  EXPECT_EQ(total, 4);
}

TEST(TableOpsTest, UnorderedEqualityIgnoresRowOrder) {
  Table t = TwoColumn();
  Table shuffled = TakeRows(t, {3, 1, 0, 2});
  EXPECT_TRUE(TablesEqualUnordered(t, shuffled));
  EXPECT_FALSE(TablesEqualOrdered(t, shuffled));
}

TEST(TableOpsTest, UnorderedEqualityIsMultiset) {
  TableBuilder a({{"k", DataType::kInt64}});
  a.AppendRowOrDie({I(1)});
  a.AppendRowOrDie({I(1)});
  a.AppendRowOrDie({I(2)});
  TableBuilder b({{"k", DataType::kInt64}});
  b.AppendRowOrDie({I(1)});
  b.AppendRowOrDie({I(2)});
  b.AppendRowOrDie({I(2)});
  EXPECT_FALSE(TablesEqualUnordered(std::move(a).Finish(), std::move(b).Finish()));
}

TEST(TableOpsTest, RenameColumns) {
  Table t = TwoColumn();
  Result<Table> renamed = RenameColumns(t, {"k"}, {"key"});
  ASSERT_TRUE(renamed.ok());
  EXPECT_TRUE(renamed->schema().FindField("key").has_value());
  EXPECT_FALSE(renamed->schema().FindField("k").has_value());
}

TEST(TableOpsTest, PrefixColumns) {
  Table prefixed = PrefixColumns(TwoColumn(), "S.");
  EXPECT_EQ(prefixed.schema().field(0).name, "S.k");
  EXPECT_EQ(prefixed.schema().field(1).name, "S.v");
  EXPECT_EQ(prefixed.num_rows(), 4);
}

// ---------------------------------------------------------------------------
// Differential tests for the typed distinct kernel and the column gather:
// every result against a RowKey-set reference kept here only, rows and order
// bit-identical, with NULL, ALL, NaN, ±0, int64 values near 2^53, dictionary
// strings, mixed-type columns and empty input.

constexpr int64_t kTwo53 = int64_t{1} << 53;

/// Columns i (int64), f (float64) and s (string) flatten; m (mixed types)
/// and a (int64 with ALL) stay on the Value path. Small pools make
/// duplicate keys common. Without `mirror` no column has a typed payload.
Table KeyTable(uint64_t seed, int64_t rows, bool mirror) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Value> ints = {NUL(), I(0), I(-1), I(7), I(kTwo53), I(kTwo53 + 1),
                                   I(kTwo53 - 1), I(std::numeric_limits<int64_t>::min()),
                                   I(std::numeric_limits<int64_t>::max())};
  const std::vector<Value> floats = {NUL(), F(0.0), F(-0.0), F(nan), F(-nan), F(1.5),
                                     F(static_cast<double>(kTwo53)),
                                     F(std::numeric_limits<double>::infinity())};
  const std::vector<Value> strings = {NUL(), S(""), S("a"), S("b"), S("NY"),
                                      S("a string longer than the small buffer")};
  const std::vector<Value> mixed = {NUL(), ALL(), I(kTwo53), I(kTwo53 + 1),
                                    F(static_cast<double>(kTwo53)), F(-0.0), F(0.0),
                                    I(0), F(nan), S("a")};
  const std::vector<Value> with_all = {ALL(), NUL(), I(1), I(2)};
  Table t(Schema({{"i", DataType::kInt64},
                  {"f", DataType::kFloat64},
                  {"s", DataType::kString},
                  {"m", DataType::kFloat64},
                  {"a", DataType::kInt64}}));
  Random rng(seed);
  auto pick = [&rng](const std::vector<Value>& pool) { return pool[rng.Uniform(pool.size())]; };
  for (int64_t r = 0; r < rows; ++r) {
    t.AppendRowUnchecked(
        {pick(ints), pick(floats), pick(strings), pick(mixed), pick(with_all)});
  }
  if (mirror) t.RebuildAccel();
  return t;
}

std::vector<std::vector<std::string>> KeyColumnSets() {
  return {{"i"}, {"f"}, {"s"}, {"m"}, {"a"}, {"f", "s"}, {"i", "m"}, {"a", "f", "i"},
          {"s", "f", "m", "a", "i"}, {}};
}

TEST(DistinctKernelTest, FixtureExercisesEveryColumnPath) {
  Table t = KeyTable(1, 64, /*mirror=*/true);
  ASSERT_NE(t.accel(), nullptr);
  EXPECT_EQ(t.accel()->cols[0].rep, FlatColumn::Rep::kInt64);
  EXPECT_EQ(t.accel()->cols[1].rep, FlatColumn::Rep::kFloat64);
  EXPECT_EQ(t.accel()->cols[2].rep, FlatColumn::Rep::kDict);
  EXPECT_EQ(t.accel()->cols[3].rep, FlatColumn::Rep::kNone);
  EXPECT_EQ(t.accel()->cols[4].rep, FlatColumn::Rep::kNone);
}

TEST(DistinctKernelTest, SignedZerosAndNaNFollowValueEquals) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (bool mirror : {true, false}) {
    Table t(Schema({{"f", DataType::kFloat64}}));
    for (double v : {-0.0, 0.0, nan, nan, -0.0, 1.0}) t.AppendRowUnchecked({F(v)});
    if (mirror) t.RebuildAccel();
    // -0 and +0 are one key and the first occurrence's sign is kept; NaN
    // equals nothing, so each NaN row is its own key.
    EXPECT_EQ(DistinctRowIndices(t, {0}), (std::vector<int64_t>{0, 2, 3, 5}));
    const Table d = Distinct(t);
    EXPECT_TRUE(std::signbit(d.Get(0, 0).float64()));
    EXPECT_TRUE(testutil::TablesBitIdentical(d, ReferenceDistinctOn(t, {0})));
  }
}

TEST(DistinctKernelTest, DistinctAndDistinctOnMatchRowKeyReference) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    for (int64_t rows : {0, 1, 7, 300, 3000}) {
      for (bool mirror : {true, false}) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " rows " + std::to_string(rows) +
                     (mirror ? " mirror" : " cells"));
        const Table t = KeyTable(seed, rows, mirror);
        const Table all = Distinct(t);
        EXPECT_TRUE(testutil::TablesBitIdentical(all, ReferenceDistinctOn(t, {0, 1, 2, 3, 4})));
        EXPECT_TRUE(testutil::MirrorAgreesWithCells(all));
        EXPECT_EQ(all.accel() != nullptr, mirror);
        for (const auto& names : KeyColumnSets()) {
          Result<Table> got = DistinctOn(t, names);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          const std::vector<int> cols = *ResolveColumns(t.schema(), names);
          EXPECT_TRUE(testutil::TablesBitIdentical(*got, ReferenceDistinctOn(t, cols)));
          EXPECT_TRUE(testutil::MirrorAgreesWithCells(*got));
        }
      }
    }
  }
}

TEST(DistinctKernelTest, RowSubsetMatchesRowKeyReference) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (bool mirror : {true, false}) {
      const Table t = KeyTable(seed, 500, mirror);
      Random rng(seed + 100);
      std::vector<int64_t> subset;
      for (int64_t r = 0; r < t.num_rows(); ++r) {
        if (rng.Uniform(3) != 0) subset.push_back(r);
      }
      for (const auto& names : KeyColumnSets()) {
        SCOPED_TRACE("seed " + std::to_string(seed) + (mirror ? " mirror" : " cells"));
        const std::vector<int> cols = *ResolveColumns(t.schema(), names);
        std::vector<int64_t> expected;
        std::unordered_set<RowKey, RowKeyHash, RowKeyEqual> seen;
        for (int64_t r : subset) {
          if (seen.insert(t.GetRowKey(r, cols)).second) expected.push_back(r);
        }
        EXPECT_EQ(DistinctRowIndices(t, cols, &subset), expected);
      }
    }
  }
}

TEST(DistinctKernelTest, GroupingSetsBasesMatchRowKeyReference) {
  const std::vector<std::vector<std::string>> dim_lists = {
      {"i", "f", "s"}, {"m", "s"}, {"a", "f"}, {"s"}};
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (int64_t rows : {0, 5, 400}) {
      for (bool mirror : {true, false}) {
        const Table t = KeyTable(seed, rows, mirror);
        for (const auto& dims : dim_lists) {
          SCOPED_TRACE("seed " + std::to_string(seed) + " rows " + std::to_string(rows) +
                       " dims " + std::to_string(dims.size()));
          const CubeLattice lattice = *CubeLattice::Make(dims);
          // Every single cuboid, then the whole cube: one distinct pass for
          // the finest cuboid, every coarser one derived from it.
          for (CuboidMask mask = 0; mask <= lattice.full_cuboid(); ++mask) {
            Result<Table> got = GroupingSetsBase(t, dims, {mask});
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            EXPECT_TRUE(testutil::TablesBitIdentical(
                *got, ReferenceGroupingSets(t, dims, {mask})));
            EXPECT_TRUE(testutil::MirrorAgreesWithCells(*got));
          }
          Result<Table> got = CubeByBase(t, dims);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_TRUE(testutil::TablesBitIdentical(
              *got, ReferenceGroupingSets(t, dims, lattice.CubeOrder())));
        }
      }
    }
  }
}

TEST(DistinctKernelTest, GatheredAndCopiedMirrorsAgreeWithCells) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const Table t = KeyTable(seed, 500, /*mirror=*/true);
    Random rng(seed);
    std::vector<int64_t> rows;
    rows.reserve(200);
    for (int k = 0; k < 200; ++k) rows.push_back(static_cast<int64_t>(rng.Uniform(500)));
    const Table taken = TakeRows(t, rows);
    ASSERT_NE(taken.accel(), nullptr);
    EXPECT_TRUE(testutil::MirrorAgreesWithCells(taken));
    for (size_t k = 0; k < rows.size(); ++k) {
      for (int c = 0; c < t.num_columns(); ++c) {
        ASSERT_TRUE(testutil::BitEq(taken.Get(static_cast<int64_t>(k), c),
                                    t.Get(rows[k], c)));
      }
    }
    // A gathered dictionary column shares its parent's dictionary.
    EXPECT_EQ(taken.accel()->cols[2].dict, t.accel()->cols[2].dict);

    const Table sorted = SortTable(t, {{1, true}, {2, false}});
    EXPECT_TRUE(testutil::MirrorAgreesWithCells(sorted));
    EXPECT_NE(sorted.accel(), nullptr);

    const Table renamed = *RenameColumns(t, {"i", "s"}, {"x", "y"});
    EXPECT_EQ(renamed.accel(), t.accel());  // every column, every row: shared
    EXPECT_EQ(renamed.schema().field(0).name, "x");
    EXPECT_TRUE(testutil::MirrorAgreesWithCells(renamed));
    const Table prefixed = PrefixColumns(t, "S.");
    EXPECT_TRUE(testutil::MirrorAgreesWithCells(prefixed));
    EXPECT_EQ(prefixed.schema().field(4).name, "S.a");

    const Table picked = GatherColumns(t, {2, 0, 2}, {{"s1", DataType::kString},
                                                      {"i", DataType::kInt64},
                                                      {"s2", DataType::kString}});
    EXPECT_TRUE(testutil::MirrorAgreesWithCells(picked));
    EXPECT_EQ(picked.num_rows(), t.num_rows());
    EXPECT_EQ(picked.accel()->cols[0].rep, FlatColumn::Rep::kDict);

    // A NULL-free selection drops the null bytemap it no longer needs; an
    // empty one carries no typed payloads at all.
    std::vector<int64_t> non_null;
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      if (!t.Get(r, 0).is_null()) non_null.push_back(r);
    }
    ASSERT_TRUE(t.accel()->cols[0].has_nulls);
    const Table dense = TakeRows(t, non_null);
    EXPECT_FALSE(dense.accel()->cols[0].has_nulls);
    EXPECT_TRUE(dense.accel()->cols[0].nulls.empty());
    EXPECT_TRUE(testutil::MirrorAgreesWithCells(dense));
    const Table none = TakeRows(t, {});
    ASSERT_NE(none.accel(), nullptr);
    for (const FlatColumn& fc : none.accel()->cols) EXPECT_FALSE(fc.flat());
  }
}

TEST(DistinctKernelTest, ApproxBytesCountsMirrorPayloadsNotDictionaries) {
  const Table t = KeyTable(3, 1000, /*mirror=*/true);
  Table cells_only(t.schema());
  for (int64_t r = 0; r < t.num_rows(); ++r) cells_only.AppendRowFrom(t, r);
  ASSERT_EQ(cells_only.accel(), nullptr);
  const auto& cols = t.accel()->cols;
  const int64_t payload =
      static_cast<int64_t>(cols[0].i64.capacity() * sizeof(int64_t) +
                           cols[1].f64.capacity() * sizeof(double) +
                           cols[2].codes.capacity() * sizeof(int32_t) +
                           cols[0].nulls.capacity() + cols[1].nulls.capacity() +
                           cols[2].nulls.capacity());
  ASSERT_GT(payload, 0);
  EXPECT_EQ(t.accel()->ApproxBytes(), payload);
  // Both tables grew their cells row by row, so they differ by exactly the
  // mirror's payload arrays; its dictionary is not counted.
  EXPECT_EQ(t.ApproxBytes(), cells_only.ApproxBytes() + payload);
}

TEST(PrinterTest, RendersGridWithAllAndNull) {
  TableBuilder b({{"k", DataType::kInt64}, {"v", DataType::kString}});
  b.AppendRowOrDie({ALL(), NUL()});
  std::string s = std::move(b).Finish().ToString();
  EXPECT_NE(s.find("ALL"), std::string::npos);
  EXPECT_NE(s.find("NULL"), std::string::npos);
  EXPECT_NE(s.find("k |"), std::string::npos);  // header cell (right-aligned: numeric)
  EXPECT_NE(s.find("| v"), std::string::npos);  // header cell (left-aligned: string)
}

TEST(PrinterTest, TruncatesLongTables) {
  TableBuilder b({{"k", DataType::kInt64}});
  for (int i = 0; i < 100; ++i) b.AppendRowOrDie({I(i)});
  std::string s = std::move(b).Finish().ToString(/*max_rows=*/10);
  EXPECT_NE(s.find("(90 more rows)"), std::string::npos);
}

TEST(CsvTest, RoundTrip) {
  Table t = testutil::SmallSales();
  std::string csv = TableToCsv(t);
  Result<Table> back = TableFromCsv(csv, t.schema());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(TablesEqualOrdered(t, *back));
}

TEST(CsvTest, NullAllAndQuoting) {
  TableBuilder b({{"k", DataType::kInt64}, {"v", DataType::kString}});
  b.AppendRowOrDie({NUL(), S("has,comma")});
  b.AppendRowOrDie({ALL(), S("has\"quote")});
  Table t = std::move(b).Finish();
  std::string csv = TableToCsv(t);
  Result<Table> back = TableFromCsv(csv, t.schema());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->Get(0, 0).is_null());
  EXPECT_TRUE(back->Get(1, 0).is_all());
  EXPECT_EQ(back->Get(0, 1).string(), "has,comma");
  EXPECT_EQ(back->Get(1, 1).string(), "has\"quote");
}

TEST(CsvTest, RejectsBadHeaderAndCells) {
  Schema schema({{"k", DataType::kInt64}});
  EXPECT_TRUE(TableFromCsv("wrong\n1\n", schema).status().IsParseError());
  EXPECT_TRUE(TableFromCsv("k\nnotanumber\n", schema).status().IsParseError());
  EXPECT_TRUE(TableFromCsv("", schema).status().IsParseError());
}

TEST(CsvTest, FileRoundTrip) {
  Table t = TwoColumn();
  std::string path = ::testing::TempDir() + "/mdjoin_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  Result<Table> back = ReadCsvFile(path, t.schema());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(TablesEqualOrdered(t, *back));
}

}  // namespace
}  // namespace mdjoin
