#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"
#include "graph/generators.hpp"

namespace gapart {
namespace {

TEST(GraphIo, UnweightedRoundTrip) {
  const Graph g = make_grid(4, 4);
  std::stringstream ss;
  write_graph(ss, g);
  const Graph h = read_graph(ss);
  ASSERT_EQ(h.num_vertices(), g.num_vertices());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto a = g.neighbors(v);
    const auto b = h.neighbors(v);
    ASSERT_EQ(a.size(), b.size()) << "vertex " << v;
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
  EXPECT_TRUE(h.unit_weights());
}

TEST(GraphIo, WeightedRoundTrip) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 2.5);
  b.add_edge(1, 2, 1.25);
  b.add_edge(2, 3, 4.0);
  b.set_vertex_weight(0, 3.0);
  b.set_vertex_weight(2, 1.5);
  const Graph g = b.build();
  std::stringstream ss;
  write_graph(ss, g);
  const Graph h = read_graph(ss);
  EXPECT_FALSE(h.unit_weights());
  EXPECT_DOUBLE_EQ(h.vertex_weight(0), 3.0);
  EXPECT_DOUBLE_EQ(h.vertex_weight(1), 1.0);
  EXPECT_DOUBLE_EQ(h.edge_weight(0, 1).value(), 2.5);
  EXPECT_DOUBLE_EQ(h.edge_weight(2, 3).value(), 4.0);
}

TEST(GraphIo, HeaderFormatCode) {
  const Graph g = make_path(3);
  std::stringstream ss;
  write_graph(ss, g);
  std::string first;
  std::getline(ss, first);
  EXPECT_EQ(first, "3 2");  // unweighted: no fmt code
}

TEST(GraphIo, CommentsSkipped) {
  std::stringstream ss("% a comment\n3 2\n% another\n2\n1 3\n2\n");
  const Graph g = read_graph(ss);
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(GraphIo, EdgeCountMismatchRejected) {
  std::stringstream ss("3 5\n2\n1 3\n2\n");
  EXPECT_THROW(read_graph(ss), Error);
}

TEST(GraphIo, NeighborOutOfRangeRejected) {
  std::stringstream ss("3 2\n2\n1 9\n2\n");
  EXPECT_THROW(read_graph(ss), Error);
}

TEST(GraphIo, EmptyInputRejected) {
  std::stringstream ss("");
  EXPECT_THROW(read_graph(ss), Error);
}

// Nothing is sized from the header, so a header promising vertex lines the
// input lacks fails on the first missing line instead of allocating for the
// promised count.
TEST(GraphIo, TwoBillionVertexHeaderFailsAsTruncated) {
  std::stringstream ss("2000000000 0");
  EXPECT_THROW(read_graph(ss), IoError);
}

TEST(GraphIo, HundredMillionVertexHeaderFailsAsTruncated) {
  std::stringstream ss("100000000 0\n");
  EXPECT_THROW(read_graph(ss), IoError);
}

TEST(GraphIo, VertexCountBeyondIdRangeRejected) {
  // 2^32 + 1 would wrap to a 1-vertex builder through an int32 cast.  The
  // header is malformed content, not a truncated file.
  std::stringstream ss("4294967297 0\n");
  try {
    read_graph(ss);
    ADD_FAILURE() << "header accepted";
  } catch (const IoError& e) {
    ADD_FAILURE() << "read as a truncated file: " << e.what();
  } catch (const Error&) {
  }
}

TEST(GraphIo, IsolatedVerticesSurvive) {
  GraphBuilder b(5);
  b.add_edge(1, 3);
  std::stringstream ss;
  write_graph(ss, b.build());
  const Graph h = read_graph(ss);
  EXPECT_EQ(h.num_vertices(), 5);
  EXPECT_EQ(h.num_edges(), 1);
  EXPECT_EQ(h.degree(0), 0);
}

TEST(CoordinateIo, RoundTrip) {
  const Graph g = make_grid(3, 3);
  std::stringstream ss;
  write_coordinates(ss, g);
  // Strip coordinates by rebuilding, then re-attach.
  GraphBuilder b(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId u : g.neighbors(v)) {
      if (u > v) b.add_edge(v, u);
    }
  }
  const Graph bare = b.build();
  EXPECT_FALSE(bare.has_coordinates());
  const Graph withc = attach_coordinates(bare, ss);
  ASSERT_TRUE(withc.has_coordinates());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(withc.coordinate(v), g.coordinate(v));
  }
}

TEST(CoordinateIo, CountMismatchRejected) {
  const Graph g = make_path(3);
  std::stringstream ss("0 0\n1 1\n");
  EXPECT_THROW(attach_coordinates(g, ss), Error);
}

TEST(CoordinateIo, NoCoordinatesToWriteRejected) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  std::stringstream ss;
  EXPECT_THROW(write_coordinates(ss, b.build()), Error);
}

TEST(PartitionIo, RoundTrip) {
  const Assignment a = {0, 1, 2, 1, 0, 3};
  std::stringstream ss;
  write_partition(ss, a);
  const Assignment b = read_partition(ss);
  EXPECT_EQ(a, b);
}

TEST(PartitionIo, NegativePartRejected) {
  std::stringstream ss("0\n-1\n2\n");
  EXPECT_THROW(read_partition(ss), Error);
}

TEST(PartitionIo, PartBeyondIdRangeRejected) {
  // 2^31 would narrow to part -2^31.
  std::stringstream ss("0\n2147483648\n");
  EXPECT_THROW(read_partition(ss), Error);
}

TEST(FileIo, GraphAndPartitionFiles) {
  const Graph g = make_cycle(7);
  const std::string dir = ::testing::TempDir();
  const std::string gpath = dir + "/gapart_test.graph";
  const std::string ppath = dir + "/gapart_test.part";
  write_graph_file(gpath, g);
  const Graph h = read_graph_file(gpath);
  EXPECT_EQ(h.num_edges(), 7);

  const Assignment a = {0, 0, 1, 1, 2, 2, 0};
  write_partition_file(ppath, a);
  EXPECT_EQ(read_partition_file(ppath), a);
}

TEST(FileIo, MissingFileThrows) {
  EXPECT_THROW(read_graph_file("/nonexistent/path/graph.txt"), Error);
}

}  // namespace
}  // namespace gapart
