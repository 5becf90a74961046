// Adaptive Range Filter (Alexiou, Kossmann, Larson — "ARF", VLDB'13), the
// Table 4.1 baseline. A binary tree over the 64-bit integer key space whose
// leaves record "may contain keys" bits. It is built in three steps, as in
// Section 4.3.5: (1) grow a perfect tree from the data (leaves hold 0/1
// keys), (2) train on sample range queries to learn which regions queries
// touch, (3) trim bottom-up to a space budget, preferring to merge leaves
// that training touched least.
#ifndef MET_ARF_ARF_H_
#define MET_ARF_ARF_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace met {

class Arf {
 public:
  Arf() = default;
  ~Arf();

  Arf(const Arf&) = delete;
  Arf& operator=(const Arf&) = delete;

  /// Grows the perfect tree over the (sorted, unique) keys.
  void Build(const std::vector<uint64_t>& keys);

  /// Records a training range query (inclusive bounds): increments usage
  /// counters on every leaf the query overlaps.
  void Train(uint64_t lo, uint64_t hi);

  /// Shrinks the tree until the encoded size fits `budget_bits`, merging
  /// least-trained sibling leaves first.
  void TrimToBits(size_t budget_bits);

  /// Range membership test on [lo, hi]; false guarantees empty.
  bool MayContainRange(uint64_t lo, uint64_t hi) const;

  /// Encoded size: breadth-first shape bit per node + occupancy bit per leaf
  /// (the bit-sequence encoding of the original paper).
  size_t EncodedBits() const;

  /// Peak build-time node memory (the paper's 26 GB pain point, scaled).
  size_t BuildMemoryBytes() const { return peak_nodes_ * sizeof(Node); }

 private:
  struct Node {
    Node* left = nullptr;
    Node* right = nullptr;
    bool occupied = false;   // leaves only
    uint32_t train_hits = 0; // leaves only
  };

  Node* BuildRange(const std::vector<uint64_t>& keys, size_t lo, size_t hi,
                   int depth);
  void Destroy(Node* n);
  void TrainNode(Node* n, uint64_t node_lo, uint64_t node_hi, uint64_t lo,
                 uint64_t hi);
  bool QueryNode(const Node* n, uint64_t node_lo, uint64_t node_hi,
                 uint64_t lo, uint64_t hi) const;
  void CollectCollapsible(Node* n, std::vector<Node*>* out);

  Node* root_ = nullptr;
  size_t num_nodes_ = 0;
  size_t num_leaves_ = 0;
  size_t peak_nodes_ = 0;
};

}  // namespace met

#endif  // MET_ARF_ARF_H_
