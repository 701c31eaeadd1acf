"""Mining design rationales from issue-tracker discussion logs.

The pipeline finds design-related sentences in an issue's summary,
description, and comments, classifies pairwise relations between them
(supporting or complementary), and folds the resulting graph into rationales:
solution groups with their attached argument groups.
"""
