/** Hardware scheduler list tests (paper Fig 5 semantics). */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "rtosunit/hw_lists.hh"

namespace rtu {
namespace {

void
settle(HwListBase &list)
{
    for (unsigned i = 0; i < 4 * list.capacity() && list.sorting(); ++i)
        list.tick();
    ASSERT_FALSE(list.sorting());
}

TEST(HwReadyList, SortsByPriorityDescending)
{
    HwReadyList list(8);
    list.insert(1, 2);
    list.insert(2, 5);
    list.insert(3, 1);
    settle(list);
    TaskId head = 0;
    ASSERT_TRUE(list.peekHead(&head));
    EXPECT_EQ(head, 2);
}

TEST(HwReadyList, FifoWithinEqualPriority)
{
    HwReadyList list(8);
    list.insert(4, 3);
    list.insert(5, 3);
    list.insert(6, 3);
    settle(list);
    EXPECT_EQ(list.popHeadRoundRobin(), 4);
    settle(list);
    EXPECT_EQ(list.popHeadRoundRobin(), 5);
    settle(list);
    EXPECT_EQ(list.popHeadRoundRobin(), 6);
    settle(list);
    EXPECT_EQ(list.popHeadRoundRobin(), 4);  // round robin wraps
}

TEST(HwReadyList, PopRequeuesAtTailOfPriorityClass)
{
    HwReadyList list(8);
    list.insert(1, 3);
    list.insert(2, 3);
    list.insert(3, 1);  // lower priority stays below
    settle(list);
    EXPECT_EQ(list.popHeadRoundRobin(), 1);
    settle(list);
    EXPECT_EQ(list.popHeadRoundRobin(), 2);
    settle(list);
    EXPECT_EQ(list.popHeadRoundRobin(), 1);
    settle(list);
    TaskId head;
    ASSERT_TRUE(list.peekHead(&head));
    EXPECT_EQ(head, 2);  // task 3 never surfaces above priority 3
}

TEST(HwReadyList, SortingFlagWhileSettling)
{
    HwReadyList list(8);
    list.insert(1, 1);
    EXPECT_TRUE(list.sorting());
    settle(list);
    EXPECT_FALSE(list.sorting());
}

TEST(HwReadyList, RemoveClearsAllMatches)
{
    HwReadyList list(8);
    list.insert(1, 2);
    list.insert(2, 4);
    settle(list);
    list.remove(2);
    settle(list);
    TaskId head;
    ASSERT_TRUE(list.peekHead(&head));
    EXPECT_EQ(head, 1);
    EXPECT_EQ(list.occupancy(), 1u);
}

// The guest reaches these through ADD_READY, GET_HW_SCHED and
// ADD_DELAY: each is the guest's architectural error, not a host abort.
TEST(HwReadyList, OverflowIsAGuestFault)
{
    HwReadyList list(2);
    list.insert(1, 1);
    list.insert(2, 1);
    EXPECT_THROW(list.insert(3, 1), GuestFault);
    EXPECT_EQ(list.occupancy(), 2u);
}

TEST(HwReadyList, PopEmptyIsAGuestFault)
{
    HwReadyList list(4);
    EXPECT_THROW(list.popHeadRoundRobin(), GuestFault);
}

TEST(HwDelayList, ZeroTickDelayIsAGuestFault)
{
    HwReadyList ready(4);
    HwDelayList delay(4, ready);
    EXPECT_THROW(delay.insert(1, 1, 0), GuestFault);
    EXPECT_EQ(delay.occupancy(), 0u);
}

TEST(HwDelayList, ExpiryMigratesToReadyList)
{
    HwReadyList ready(8);
    HwDelayList delay(8, ready);
    delay.insert(5, 2, 2);
    settle(delay);
    delay.timerTick();  // 2 -> 1
    settle(delay);
    EXPECT_FALSE(delay.transferring());
    delay.timerTick();  // 1 -> 0
    settle(delay);
    EXPECT_TRUE(delay.transferring());
    delay.transferTick();
    EXPECT_FALSE(delay.transferring());
    settle(ready);
    TaskId head;
    ASSERT_TRUE(ready.peekHead(&head));
    EXPECT_EQ(head, 5);
    EXPECT_EQ(delay.occupancy(), 0u);
}

TEST(HwDelayList, OneTransferPerCycle)
{
    HwReadyList ready(8);
    HwDelayList delay(8, ready);
    delay.insert(1, 1, 1);
    delay.insert(2, 2, 1);
    delay.insert(3, 3, 1);
    settle(delay);
    delay.timerTick();
    settle(delay);
    ASSERT_TRUE(delay.transferring());
    delay.transferTick();
    EXPECT_EQ(ready.occupancy(), 1u);
    delay.transferTick();
    delay.transferTick();
    EXPECT_EQ(ready.occupancy(), 3u);
}

TEST(HwDelayList, SortedByRemainingDelayThenPriority)
{
    HwReadyList ready(8);
    HwDelayList delay(8, ready);
    delay.insert(1, 1, 5);
    delay.insert(2, 7, 2);
    delay.insert(3, 3, 2);  // same delay as 2, lower priority
    settle(delay);
    const auto &slots = delay.slots();
    EXPECT_EQ(slots[0].id, 2);
    EXPECT_EQ(slots[1].id, 3);
    EXPECT_EQ(slots[2].id, 1);
}

TEST(HwLists, StatsTrackActivity)
{
    HwReadyList list(8);
    list.insert(1, 1);
    settle(list);
    list.popHeadRoundRobin();
    settle(list);
    list.remove(1);
    EXPECT_EQ(list.stats().inserts, 1u);
    EXPECT_EQ(list.stats().pops, 1u);
    EXPECT_EQ(list.stats().removes, 1u);
    EXPECT_GT(list.stats().sortPhases, 0u);
}

/** Property sweep: any insertion order settles into a stable
 *  priority-descending order within capacity() phases. */
class ReadySortProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ReadySortProperty, SettlesSortedWithinBoundedPhases)
{
    const unsigned seed = GetParam();
    HwReadyList list(8);
    unsigned x = seed;
    for (TaskId id = 0; id < 8; ++id) {
        x = x * 1103515245 + 12345;
        list.insert(id, static_cast<Priority>((x >> 16) % 8));
    }
    // A full odd-even transposition of N elements needs N phases
    // (plus one for starting parity).
    for (unsigned i = 0; i < 9 && list.sorting(); ++i)
        list.tick();
    EXPECT_FALSE(list.sorting());
    const auto &slots = list.slots();
    for (unsigned i = 0; i + 1 < slots.size(); ++i) {
        ASSERT_TRUE(slots[i].valid);
        if (slots[i].prio == slots[i + 1].prio) {
            EXPECT_LT(slots[i].seq, slots[i + 1].seq);
        } else {
            EXPECT_GT(slots[i].prio, slots[i + 1].prio);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReadySortProperty,
                         ::testing::Range(0u, 25u));

} // namespace
} // namespace rtu
