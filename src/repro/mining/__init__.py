"""Frequent-itemset mining substrate (Apriori, Eclat, FUP)."""
