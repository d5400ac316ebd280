#include "blockexec.hh"

#include "common/logging.hh"

namespace rtu {

std::uint8_t
BlockIndex::classify(const DecodedInsn &insn) const
{
    if (!insn.valid())
        return kStop;
    switch (insn.cls) {
      case InsnClass::kCsr:
      case InsnClass::kSystem:
      case InsnClass::kCustom:
        return kStop;
      case InsnClass::kBranch:
      case InsnClass::kJump:
        return kControl;
      case InsnClass::kLoad:
        return kMem;
      case InsnClass::kStore:
        return kMem | kStoreOp;
      default:
        return 0;
    }
}

bool
BlockIndex::hazardPair(const DecodedInsn &prev, const DecodedInsn &cur) const
{
    if (prev.cls != InsnClass::kLoad || prev.rd == 0)
        return false;
    return (cur.useRs1 && cur.rs1 == prev.rd) ||
           (cur.useRs2 && cur.rs2 == prev.rd);
}

unsigned
BlockIndex::worstCostOf(const DecodedInsn &insn) const
{
    switch (insn.cls) {
      case InsnClass::kBranch:
        return cost_.takenBranchCycles;
      case InsnClass::kJump:
        return cost_.jumpCycles;
      case InsnClass::kDiv:
        return cost_.divBaseCycles + 32;  // full-width dividend
      default:
        return 1;
    }
}

bool
BlockIndex::recomputeSummary(std::size_t i)
{
    const std::uint8_t f = flags_[i];
    std::uint32_t run = 0;
    std::uint32_t worst = 0;
    bool suffixStore = false;
    if (!(f & kStop)) {
        const bool terminal =
            (f & kControl) != 0 || i + 1 == runLen_.size();
        run = 1;
        worst = worstCostOf(image_->atIndex(i));
        if (f & kHazPrev)
            worst += cost_.loadUseStall;
        suffixStore = (f & kStoreOp) != 0;
        if (!terminal) {
            run += runLen_[i + 1];
            worst += suffixWorst_[i + 1];
            suffixStore |= (flags_[i + 1] & kSuffixStore) != 0;
        }
    }
    const std::uint8_t newFlags =
        static_cast<std::uint8_t>((f & ~kSuffixStore) |
                                  (suffixStore ? kSuffixStore : 0));
    const bool changed = runLen_[i] != run || suffixWorst_[i] != worst ||
                         flags_[i] != newFlags;
    runLen_[i] = run;
    suffixWorst_[i] = worst;
    flags_[i] = newFlags;
    return changed;
}

void
BlockIndex::install(PredecodedImage &image, const Cv32e40pParams &cost)
{
    rtu_assert(image.installed(), "BlockIndex over an empty image");
    image_ = &image;
    cost_ = cost;
    base_ = image.base();
    const std::size_t words = image.words();
    size_ = static_cast<Addr>(4 * words);
    flags_.assign(words, 0);
    runLen_.assign(words, 0);
    suffixWorst_.assign(words, 0);

    for (std::size_t i = 0; i < words; ++i) {
        flags_[i] = classify(image.atIndex(i));
        if (i > 0 && hazardPair(image.atIndex(i - 1), image.atIndex(i)))
            flags_[i] |= kHazPrev;
    }
    for (std::size_t i = words; i-- > 0;)
        recomputeSummary(i);

    image.setListener(this);
}

void
BlockIndex::wordRedecoded(std::size_t index)
{
    // Re-classify the touched word; its hazard bit depends on the
    // unchanged predecessor, and the successor's hazard bit depends on
    // the new decode.
    const std::size_t words = flags_.size();
    std::uint8_t f = classify(image_->atIndex(index));
    if (index > 0 &&
        hazardPair(image_->atIndex(index - 1), image_->atIndex(index))) {
        f |= kHazPrev;
    }
    flags_[index] = f;
    if (index + 1 < words) {
        flags_[index + 1] &= static_cast<std::uint8_t>(~kHazPrev);
        if (hazardPair(image_->atIndex(index),
                       image_->atIndex(index + 1))) {
            flags_[index + 1] |= kHazPrev;
        }
    }

    // Re-form every block whose summary depended on the touched word:
    // start at the successor (its hazard bit may have moved) and walk
    // backward while the recomputed summaries change. The walk crosses
    // block boundaries exactly as far as the dependency reaches — a
    // straddling store that re-decodes the last word of one block and
    // the first word of the next re-forms both.
    std::size_t j = std::min(index + 1, words - 1);
    while (true) {
        const bool changed = recomputeSummary(j);
        ++invalidations_;
        if (j == 0 || (!changed && j <= index))
            break;
        --j;
    }
}

} // namespace rtu
